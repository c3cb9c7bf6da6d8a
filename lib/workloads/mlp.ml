type config = {
  features : int;
  classes : int;
  hidden : int;
  samples_per_class : int;
  bins : int;
  max_depth : int;
  epochs : int;
  lr : float;
  seed : int;
}

let default_config =
  {
    features = 16;
    classes = 5;
    hidden = 16;
    samples_per_class = 40;
    bins = 8;
    max_depth = 5;
    epochs = 60;
    lr = 0.15;
    seed = 7;
  }

type t = {
  cfg : config;
  w1 : float array array;  (* hidden x features *)
  b1 : float array;
  w2 : float array array;  (* classes x hidden *)
  neurons : Decision_tree.model array;
  neuron_rules : Decision_tree.rules array;
  row_offset : int array;  (* start row of neuron j's rules *)
  n_rows : int;
  width : int;
  protos : float array array;  (* classes x hidden, +-1 *)
  train_ds : Dataset.t;
  test_ds : Dataset.t;
}

let config t = t.cfg
let weights t = (t.w1, t.b1, t.w2)
let test_set t = t.test_ds
let prototypes t = t.protos
let total_rows t = t.n_rows
let rule_width t = t.width

let layer2_source t ~q =
  Kernels.hdc_dot ~q ~dims:t.cfg.hidden ~classes:t.cfg.classes ~k:1

(* ---- the float network ------------------------------------------------- *)

let forward_hidden t x =
  Array.mapi
    (fun j wj ->
      let s = ref t.b1.(j) in
      Array.iteri (fun i v -> s := !s +. (wj.(i) *. v)) x;
      tanh !s)
    t.w1

let argmax_low logits =
  let best = ref 0 in
  Array.iteri (fun c v -> if v > logits.(!best) then best := c) logits;
  !best

let logits_of w2 h =
  Array.map
    (fun wc ->
      let s = ref 0. in
      Array.iteri (fun j v -> s := !s +. (wc.(j) *. v)) h;
      !s)
    w2

let predict_float t x = argmax_low (logits_of t.w2 (forward_hidden t x))

let dataset_accuracy predict (ds : Dataset.t) =
  let correct = ref 0 in
  Array.iteri
    (fun i row -> if predict row = ds.labels.(i) then incr correct)
    ds.features;
  float_of_int !correct /. float_of_int (Dataset.n_samples ds)

let float_accuracy t = dataset_accuracy (predict_float t) t.test_ds

(* ---- the quantised (tree + sign) reference ----------------------------- *)

let code_of_bits bits = Array.map (fun b -> (2. *. b) -. 1.) bits

let bits_quantized t x =
  Array.map
    (fun neuron -> float_of_int (Decision_tree.predict neuron x))
    t.neurons

let codes_quantized t xs =
  Array.map (fun x -> code_of_bits (bits_quantized t x)) xs

let predict_quantized t x =
  argmax_low (logits_of t.protos (code_of_bits (bits_quantized t x)))

let quantized_accuracy t = dataset_accuracy (predict_quantized t) t.test_ds

(* ---- training ----------------------------------------------------------- *)

(* Softmax cross-entropy SGD on flat weights stored input-major (w1.(f
   * hidden + j) is neuron j's weight on feature f, w2.(j * classes + c)
   class c's weight on neuron j), so every inner loop runs over
   neighbouring cells with nothing to allocate. Each weight's sums and
   updates run in the same order as the nested-array formulation
   (features in order for a neuron, hidden units in order for a logit,
   classes in order for a hidden gradient), so the weights are the same
   bits. *)
let train_float cfg rng (ds : Dataset.t) =
  let nf = cfg.features and nh = cfg.hidden and nc = cfg.classes in
  let init fan_in = (Rng.float rng -. 0.5) *. 2. /. sqrt (float_of_int fan_in) in
  let w1 = Array.make (nf * nh) 0. and w2 = Array.make (nh * nc) 0. in
  for j = 0 to nh - 1 do
    for f = 0 to nf - 1 do
      w1.((f * nh) + j) <- init nf
    done
  done;
  for c = 0 to nc - 1 do
    for j = 0 to nh - 1 do
      w2.((j * nc) + c) <- init nh
    done
  done;
  let b1 = Array.make nh 0. in
  let h = Array.make nh 0. and lg = Array.make nh 0. in
  let p = Array.make nc 0. in
  let lr = cfg.lr in
  let n = Dataset.n_samples ds in
  let order = Array.init n Fun.id in
  for _epoch = 1 to cfg.epochs do
    Rng.shuffle rng order;
    for o = 0 to n - 1 do
      let i = order.(o) in
      let x = ds.features.(i) and y = ds.labels.(i) in
      Array.blit b1 0 h 0 nh;
      for f = 0 to nf - 1 do
        let xf = x.(f) and row = f * nh in
        for j = 0 to nh - 1 do
          h.(j) <- h.(j) +. (w1.(row + j) *. xf)
        done
      done;
      for j = 0 to nh - 1 do
        h.(j) <- tanh h.(j)
      done;
      (* softmax of the logits w2 . h, then dz_c = p_c - [c = y]: the
         cross-entropy gradient *)
      Array.fill p 0 nc 0.;
      for j = 0 to nh - 1 do
        let hj = h.(j) and row = j * nc in
        for c = 0 to nc - 1 do
          p.(c) <- p.(c) +. (w2.(row + c) *. hj)
        done
      done;
      let m = ref Float.neg_infinity in
      for c = 0 to nc - 1 do
        m := Float.max !m p.(c)
      done;
      let total = ref 0. in
      for c = 0 to nc - 1 do
        let e = exp (p.(c) -. !m) in
        p.(c) <- e;
        total := !total +. e
      done;
      for c = 0 to nc - 1 do
        p.(c) <- (p.(c) /. !total) -. if c = y then 1. else 0.
      done;
      (* lg_j = lr * dL/d(pre-activation j), from the weights before
         this step's update *)
      for j = 0 to nh - 1 do
        let hj = h.(j) and row = j * nc in
        let dh = ref 0. in
        for c = 0 to nc - 1 do
          let g = p.(c) in
          dh := !dh +. (g *. w2.(row + c));
          w2.(row + c) <- w2.(row + c) -. (lr *. g *. hj)
        done;
        lg.(j) <- lr *. (!dh *. (1. -. (hj *. hj)));
        b1.(j) <- b1.(j) -. lg.(j)
      done;
      for f = 0 to nf - 1 do
        let xf = x.(f) and row = f * nh in
        for j = 0 to nh - 1 do
          w1.(row + j) <- w1.(row + j) -. (lg.(j) *. xf)
        done
      done
    done
  done;
  ( Array.init nh (fun j -> Array.init nf (fun f -> w1.((f * nh) + j))),
    b1,
    Array.init nc (fun c -> Array.init nh (fun j -> w2.((j * nc) + c))) )

let train ?(config = default_config) () =
  let cfg = config in
  if cfg.hidden < 1 || cfg.classes < 2 || cfg.features < 1 then
    invalid_arg "Mlp.train: degenerate configuration";
  let full =
    Dataset.mnist_like ~seed:cfg.seed ~n_features:cfg.features
      ~n_classes:cfg.classes ~samples_per_class:cfg.samples_per_class ()
  in
  let train_ds, test_ds =
    Dataset.split ~seed:(cfg.seed + 1) full ~train_fraction:0.7
  in
  let rng = Rng.create (cfg.seed + 2) in
  let w1, b1, w2 = train_float cfg rng train_ds in
  (* Distill each hidden neuron's sign into a two-class tree on the
     training features. All trees see the same dataset, so they share
     mins/maxs/bins — one thermometer encoding serves the whole stacked
     table. *)
  let neurons =
    Array.init cfg.hidden (fun j ->
        let labels =
          Array.map
            (fun x ->
              let s = ref b1.(j) in
              Array.iteri (fun f v -> s := !s +. (w1.(j).(f) *. v)) x;
              if !s > 0. then 1 else 0)
            train_ds.features
        in
        Decision_tree.train ~max_depth:cfg.max_depth ~bins:cfg.bins
          { Dataset.features = train_ds.features; labels; n_classes = 2 })
  in
  let neuron_rules = Array.map Decision_tree.to_rules neurons in
  let row_offset = Array.make cfg.hidden 0 in
  let n_rows = ref 0 in
  Array.iteri
    (fun j (r : Decision_tree.rules) ->
      row_offset.(j) <- !n_rows;
      n_rows := !n_rows + Array.length r.patterns)
    neuron_rules;
  let protos =
    Array.map (Array.map (fun w -> if w >= 0. then 1. else -1.)) w2
  in
  {
    cfg;
    w1;
    b1;
    w2;
    neurons;
    neuron_rules;
    row_offset;
    n_rows = !n_rows;
    width = neuron_rules.(0).width;
    protos;
    train_ds;
    test_ds;
  }

(* ---- the layer-1 CAM device -------------------------------------------- *)

type device = {
  dev_sim : Camsim.Simulator.t;
  dev_sub : Camsim.Simulator.id;
  mutable dev_latency : float;
}

let layer1_spec t =
  {
    (Archspec.Spec.square 32 Archspec.Spec.Base) with
    rows = max 32 t.n_rows;
    cols = t.width;
  }

let layer1_device ?tech t =
  let spec = layer1_spec t in
  let sim = Camsim.Simulator.create ?tech spec in
  let bank = Camsim.Simulator.alloc_bank sim ~rows:spec.rows ~cols:spec.cols in
  let mat = Camsim.Simulator.alloc_mat sim bank in
  let arr = Camsim.Simulator.alloc_array sim mat in
  let sub = Camsim.Simulator.alloc_subarray sim arr in
  let patterns = Array.make t.n_rows [||] in
  let care = Array.make t.n_rows [||] in
  Array.iteri
    (fun j (r : Decision_tree.rules) ->
      Array.iteri
        (fun i p ->
          patterns.(t.row_offset.(j) + i) <- p;
          care.(t.row_offset.(j) + i) <- r.care.(i))
        r.patterns)
    t.neuron_rules;
  let c = Camsim.Simulator.write sim sub ~row_offset:0 ~care patterns in
  { dev_sim = sim; dev_sub = sub; dev_latency = c.Camsim.Energy_model.latency }

let encode_cam t dev xs =
  let encoded = Array.map (Decision_tree.encode_query t.neurons.(0)) xs in
  let c =
    Camsim.Simulator.search dev.dev_sim dev.dev_sub ~queries:encoded
      ~row_offset:0 ~rows:t.n_rows ~kind:`Exact ~metric:`Hamming ()
  in
  dev.dev_latency <- dev.dev_latency +. c.Camsim.Energy_model.latency;
  let matches = Camsim.Simulator.read dev.dev_sim dev.dev_sub in
  Array.mapi
    (fun qi (row : float array) ->
      Array.init t.cfg.hidden (fun j ->
          let off = t.row_offset.(j) in
          let len = Array.length t.neuron_rules.(j).Decision_tree.patterns in
          let rec first i =
            if i >= len then
              failwith
                (Printf.sprintf
                   "query %d matches no rule of hidden neuron %d" qi j)
            else if row.(off + i) = 0. then
              t.neuron_rules.(j).Decision_tree.classes.(i)
            else first (i + 1)
          in
          (2. *. float_of_int (first 0)) -. 1.))
    matches

let device_latency dev = dev.dev_latency
let device_stats dev = Camsim.Simulator.stats dev.dev_sim
let device_energy dev = Camsim.Stats.total_energy (device_stats dev)
