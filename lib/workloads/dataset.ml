type t = {
  features : float array array;
  labels : int array;
  n_classes : int;
}

let n_samples t = Array.length t.features

let n_features t =
  if Array.length t.features = 0 then 0 else Array.length t.features.(0)

let clamp01 v = if v < 0. then 0. else if v > 1. then 1. else v

let mnist_like ?(seed = 42) ?(noise = 0.15) ~n_features ~n_classes
    ~samples_per_class () =
  let rng = Rng.create seed in
  (* Smooth templates: random walk in [0,1], so neighbouring features
     correlate like neighbouring pixels. *)
  let template _ =
    let v = ref (Rng.float rng) in
    Array.init n_features (fun _ ->
        v := clamp01 (!v +. ((Rng.float rng -. 0.5) *. 0.4));
        !v)
  in
  let templates = Array.init n_classes template in
  let n = n_classes * samples_per_class in
  let features = Array.make n [||] in
  let labels = Array.make n 0 in
  for c = 0 to n_classes - 1 do
    for s = 0 to samples_per_class - 1 do
      let i = (c * samples_per_class) + s in
      labels.(i) <- c;
      features.(i) <-
        Array.map
          (fun v -> clamp01 (v +. ((Rng.float rng -. 0.5) *. 2. *. noise)))
          templates.(c)
    done
  done;
  { features; labels; n_classes }

let pneumonia_like ?(seed = 7) ?(separation = 1.2) ~n_features
    ~samples_per_class () =
  let rng = Rng.create seed in
  let centers =
    Array.init 2 (fun c ->
        Array.init n_features (fun _ ->
            if c = 0 then Rng.gaussian rng *. 0.5
            else
              (Rng.gaussian rng *. 0.5)
              +. (separation /. sqrt (float_of_int n_features) *. 10.)))
  in
  let n = 2 * samples_per_class in
  let features = Array.make n [||] in
  let labels = Array.make n 0 in
  for c = 0 to 1 do
    for s = 0 to samples_per_class - 1 do
      let i = (c * samples_per_class) + s in
      labels.(i) <- c;
      features.(i) <-
        Array.map (fun m -> m +. Rng.gaussian rng) centers.(c)
    done
  done;
  { features; labels; n_classes = 2 }

let split ?(seed = 3) t ~train_fraction =
  if train_fraction <= 0. || train_fraction >= 1. then
    invalid_arg "Dataset.split: train_fraction must be in (0, 1)";
  let n = n_samples t in
  let order = Array.init n (fun i -> i) in
  Rng.shuffle (Rng.create seed) order;
  let n_train = int_of_float (float_of_int n *. train_fraction) in
  let take idxs =
    {
      features = Array.map (fun i -> t.features.(i)) idxs;
      labels = Array.map (fun i -> t.labels.(i)) idxs;
      n_classes = t.n_classes;
    }
  in
  ( take (Array.sub order 0 n_train),
    take (Array.sub order n_train (n - n_train)) )
