type embedder = { weights : float array array (* out_dim x in_dim *) }

let embedder ?(seed = 5) ~in_dim ~out_dim () =
  let rng = Rng.create seed in
  {
    weights =
      Array.init out_dim (fun _ ->
          Array.init in_dim (fun _ -> Rng.gaussian rng));
  }

let embed e x =
  Array.map
    (fun w ->
      let s = ref 0. in
      Array.iteri (fun i v -> s := !s +. (v *. w.(i))) x;
      if !s >= 0. then 1. else 0.)
    e.weights

type episode = {
  support : float array array;
  support_labels : int array;
  queries : float array array;
  query_labels : int array;
}

let make_episode ?(seed = 7) ?(noise = 0.25) ~n_way ~k_shot ~n_queries ~dim
    () =
  let rng = Rng.create seed in
  let prototypes =
    Array.init n_way (fun _ -> Array.init dim (fun _ -> Rng.gaussian rng))
  in
  let sample c =
    Array.map (fun v -> v +. (noise *. Rng.gaussian rng)) prototypes.(c)
  in
  let support_labels =
    Array.init (n_way * k_shot) (fun i -> i / k_shot)
  in
  let support = Array.map sample support_labels in
  let query_labels = Array.init n_queries (fun _ -> Rng.int rng n_way) in
  let queries = Array.map sample query_labels in
  { support; support_labels; queries; query_labels }

let vote ~n_way ~labels neighbour_idxs =
  let votes = Array.make n_way 0 in
  Array.iter
    (fun i -> votes.(labels.(i)) <- votes.(labels.(i)) + 1)
    neighbour_idxs;
  Distance.argmax (Array.map float_of_int votes)

let n_way_of episode =
  1 + Array.fold_left max 0 episode.support_labels

let classify_software e episode ~k =
  let keys = Array.map (embed e) episode.support in
  let n_way = n_way_of episode in
  Array.map
    (fun q ->
      let key = embed e q in
      let nn = Distance.topk ~k (Array.map (Distance.hamming key) keys) in
      vote ~n_way ~labels:episode.support_labels (Array.map snd nn))
    episode.queries

let classify_cam ?spec e episode ~k =
  let keys = Array.map (embed e) episode.support in
  let n_keys = Array.length keys in
  let dim = Array.length keys.(0) in
  let spec =
    match spec with
    | Some s -> s
    | None ->
        { Archspec.Spec.default with rows = max 16 n_keys; cols = dim }
  in
  if spec.rows < n_keys || spec.cols < dim then
    invalid_arg "Few_shot.classify_cam: support set does not fit";
  let sim = Camsim.Simulator.create spec in
  Camsim.Simulator.set_query_hint sim (Array.length episode.queries);
  let bank = Camsim.Simulator.alloc_bank sim ~rows:spec.rows ~cols:spec.cols in
  let mat = Camsim.Simulator.alloc_mat sim bank in
  let arr = Camsim.Simulator.alloc_array sim mat in
  let sub = Camsim.Simulator.alloc_subarray sim arr in
  ignore (Camsim.Simulator.write sim sub ~row_offset:0 keys);
  let query_keys = Array.map (embed e) episode.queries in
  ignore
    (Camsim.Simulator.search sim sub ~queries:query_keys ~row_offset:0
       ~rows:n_keys ~kind:`Best ~metric:`Hamming ());
  let dists = Camsim.Simulator.read sim sub in
  let (_, idxs), _ = Camsim.Simulator.select_best sim ~dist:dists ~k ~largest:false in
  let n_way = n_way_of episode in
  ( Array.map (vote ~n_way ~labels:episode.support_labels) idxs,
    Camsim.Simulator.stats sim )

let episode_accuracy predictions labels =
  let correct = ref 0 in
  Array.iteri (fun i p -> if p = labels.(i) then incr correct) predictions;
  float_of_int !correct /. float_of_int (Array.length labels)
