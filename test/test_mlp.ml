(* CAM-only MLP inference: layer 1 as a stacked DT2CAM rule table,
   layer 2 as the bipolar HDC dot kernel. The CAM path must equal the
   quantised software reference bit-for-bit, and both must stay within
   the quantisation bound of the float model. *)

open Workloads

let bundle = lazy (Mlp.train ())

let test_float_accuracy () =
  let t = Lazy.force bundle in
  let acc = Mlp.float_accuracy t in
  Alcotest.(check bool)
    (Printf.sprintf "float accuracy %.2f > 0.85" acc)
    true (acc > 0.85)

let test_quantized_within_bound () =
  let t = Lazy.force bundle in
  let fl = Mlp.float_accuracy t and q = Mlp.quantized_accuracy t in
  Alcotest.(check bool)
    (Printf.sprintf "quantised %.2f within 0.15 of float %.2f" q fl)
    true (fl -. q <= 0.15)

let test_layer1_cam_parity () =
  (* The stacked rule table evaluates every neuron exactly like the
     per-neuron software trees. *)
  let t = Lazy.force bundle in
  let dev = Mlp.layer1_device t in
  let test = Mlp.test_set t in
  let cam = Mlp.encode_cam t dev test.Dataset.features in
  let soft = Mlp.codes_quantized t test.Dataset.features in
  Alcotest.(check bool) "bipolar codes identical" true (cam = soft);
  Alcotest.(check bool) "write + search charged" true
    (Mlp.device_energy dev > 0. && Mlp.device_latency dev > 0.)

let test_end_to_end_cam_parity () =
  (* Full CAM pipeline: CAM layer-1 codes through the compiled layer-2
     kernel must reproduce the quantised reference predictions. *)
  let t = Lazy.force bundle in
  let dev = Mlp.layer1_device t in
  let test = Mlp.test_set t in
  let q = min 16 (Dataset.n_samples test) in
  let xs = Array.sub test.Dataset.features 0 q in
  let codes = Mlp.encode_cam t dev xs in
  let source = Mlp.layer2_source t ~q in
  (* columns sized to the code width so the partitioner tiles evenly *)
  let cfg = Mlp.config t in
  let spec =
    {
      (Archspec.Spec.square 32 Archspec.Spec.Base) with
      Archspec.Spec.cols = cfg.Mlp.hidden;
    }
  in
  let compiled = C4cam.Driver.compile ~spec source in
  let r =
    C4cam.Driver.run_cam compiled ~queries:codes
      ~stored:(Mlp.prototypes t)
  in
  let expected = Array.map (Mlp.predict_quantized t) xs in
  let got = Array.map (fun (row : int array) -> row.(0)) r.C4cam.Driver.indices in
  Alcotest.(check (array int)) "CAM = quantised reference" expected got

(* The float network's SGD written on nested arrays with closures, the
   straightforward way: the oracle for Mlp's flat-array training. *)
let reference_sgd (cfg : Mlp.config) =
  let full =
    Dataset.mnist_like ~seed:cfg.seed ~n_features:cfg.features
      ~n_classes:cfg.classes ~samples_per_class:cfg.samples_per_class ()
  in
  let ds, _ = Dataset.split ~seed:(cfg.seed + 1) full ~train_fraction:0.7 in
  let rng = Rng.create (cfg.seed + 2) in
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
  let logits_of h =
    Array.map
      (fun wc ->
        let s = ref 0. in
        Array.iteri (fun j v -> s := !s +. (wc.(j) *. v)) h;
        !s)
      w2
  in
  let softmax z =
    let m = Array.fold_left Float.max Float.neg_infinity z in
    let e = Array.map (fun v -> exp (v -. m)) z in
    let s = Array.fold_left ( +. ) 0. e in
    Array.map (fun v -> v /. s) e
  in
  let order = Array.init (Dataset.n_samples ds) Fun.id in
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
        let p = softmax (logits_of h) in
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

let test_sgd_matches_reference () =
  let bits = Array.map Int64.bits_of_float in
  List.iter
    (fun (cfg : Mlp.config) ->
      let w1, b1, w2 = Mlp.weights (Mlp.train ~config:cfg ()) in
      let r1, rb1, r2 = reference_sgd cfg in
      let label what = Printf.sprintf "seed %d: %s" cfg.seed what in
      Alcotest.(check (array (array int64))) (label "w1")
        (Array.map bits r1) (Array.map bits w1);
      Alcotest.(check (array int64)) (label "b1") (bits rb1) (bits b1);
      Alcotest.(check (array (array int64))) (label "w2")
        (Array.map bits r2) (Array.map bits w2))
    Mlp.
      [
        default_config;
        { default_config with features = 8; classes = 3; hidden = 5;
          samples_per_class = 10; epochs = 7; seed = 1 };
        { default_config with features = 12; classes = 2; hidden = 12;
          samples_per_class = 20; epochs = 15; lr = 0.3; seed = 23 };
        { default_config with features = 5; classes = 4; hidden = 9;
          samples_per_class = 7; epochs = 3; seed = 99 };
      ]

let test_rule_table_shape () =
  let t = Lazy.force bundle in
  let cfg = Mlp.config t in
  Alcotest.(check int) "width = features x (bins-1)"
    (cfg.Mlp.features * (cfg.Mlp.bins - 1))
    (Mlp.rule_width t);
  Alcotest.(check bool) "at least one rule per neuron" true
    (Mlp.total_rows t >= cfg.Mlp.hidden)

let () =
  Alcotest.run "mlp"
    [
      ( "mlp",
        [
          Alcotest.test_case "float accuracy" `Quick test_float_accuracy;
          Alcotest.test_case "quantised bound" `Quick
            test_quantized_within_bound;
          Alcotest.test_case "layer-1 parity" `Quick test_layer1_cam_parity;
          Alcotest.test_case "end-to-end parity" `Quick
            test_end_to_end_cam_parity;
          Alcotest.test_case "rule table shape" `Quick test_rule_table_shape;
          Alcotest.test_case "sgd matches reference" `Quick
            test_sgd_matches_reference;
        ] );
    ]
