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

let softmax z =
  let m = Array.fold_left Float.max Float.neg_infinity z in
  let e = Array.map (fun v -> exp (v -. m)) z in
  let s = Array.fold_left ( +. ) 0. e in
  Array.map (fun v -> v /. s) e

let train_float cfg rng (ds : Dataset.t) =
  let init fan_in = (Rng.float rng -. 0.5) *. 2. /. sqrt (float_of_int fan_in) in
  let w1 =
    Array.init cfg.hidden (fun _ ->
        Array.init cfg.features (fun _ -> init cfg.features))
  in
  let b1 = Array.make cfg.hidden 0. in
  let w2 =
    Array.init cfg.classes (fun _ ->
        Array.init cfg.hidden (fun _ -> init cfg.hidden))
  in
  let n = Dataset.n_samples ds in
  let order = Array.init n Fun.id in
  for _epoch = 1 to cfg.epochs do
    Rng.shuffle rng order;
    Array.iter
      (fun i ->
        let x = ds.features.(i) and y = ds.labels.(i) in
        let h =
          Array.mapi
            (fun j wj ->
              let s = ref b1.(j) in
              Array.iteri (fun f v -> s := !s +. (wj.(f) *. v)) x;
              tanh !s)
            w1
        in
        let p = softmax (logits_of w2 h) in
        (* dz_c = p_c - [c = y]; cross-entropy gradient *)
        let dz = Array.mapi (fun c v -> v -. if c = y then 1. else 0.) p in
        let dh = Array.make cfg.hidden 0. in
        Array.iteri
          (fun c wc ->
            let g = dz.(c) in
            Array.iteri
              (fun j hv ->
                dh.(j) <- dh.(j) +. (g *. wc.(j));
                wc.(j) <- wc.(j) -. (cfg.lr *. g *. hv))
              h)
          w2;
        Array.iteri
          (fun j wj ->
            let g = dh.(j) *. (1. -. (h.(j) *. h.(j))) in
            b1.(j) <- b1.(j) -. (cfg.lr *. g);
            Array.iteri
              (fun f v -> wj.(f) <- wj.(f) -. (cfg.lr *. g *. v))
              x)
          w1)
      order
  done;
  (w1, b1, w2)

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
  let c = Camsim.Simulator.write_ternary sim sub ~row_offset:0 ~care patterns in
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
