(* Workloads: PRNG determinism, datasets, distances, HDC pipeline, KNN. *)

open Workloads

let test_prng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Tutil.check_float ~eps:0. "same stream" (Rng.float a) (Rng.float b)
  done;
  let c = Rng.create 43 in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.float (Rng.create 42) <> Rng.float c)

let test_prng_ranges () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.);
    let i = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (i >= 0 && i < 10)
  done;
  Tutil.check_raises_invalid "bad bound" (fun () -> Rng.int r 0)

let test_prng_uniformity () =
  let r = Rng.create 7 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let i = Rng.int r 4 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    counts

let test_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 20000 in
  let sum = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let g = Rng.gaussian r in
    sum := !sum +. g;
    sq := !sq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.) < 0.1)

let test_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle r b;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list b) = Array.to_list a);
  Alcotest.(check bool) "actually shuffled" true (a <> b)

(* SplitMix64 written out again on a plain int64 ref, the generator's
   oracle: every stream must match it draw for draw. *)
module Splitmix_ref = struct
  let gamma = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.logxor z (Int64.shift_right_logical z 30) in
    let z = Int64.mul z 0xBF58476D1CE4E5B9L in
    let z = Int64.logxor z (Int64.shift_right_logical z 27) in
    let z = Int64.mul z 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = ref (Int64.of_int seed)

  let next s =
    s := Int64.add !s gamma;
    mix !s

  let float s =
    Int64.to_float (Int64.shift_right_logical (next s) 11)
    /. 9007199254740992.0

  let gaussian s =
    let u1 = max (float s) 1e-300 in
    let u2 = float s in
    sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

  let split s i =
    ref (mix (Int64.add (mix (Int64.add !s (Int64.of_int (i + 1)))) gamma))
end

let test_prng_splitmix_oracle () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun seed ->
      let label what = Printf.sprintf "seed %d: %s" seed what in
      let r = Rng.create seed and o = Splitmix_ref.create seed in
      for _ = 1 to 64 do
        Alcotest.(check int64) (label "next_int64") (Splitmix_ref.next o)
          (Rng.next_int64 r);
        Alcotest.(check int64) (label "float")
          (bits (Splitmix_ref.float o))
          (bits (Rng.float r));
        Alcotest.(check int64) (label "gaussian")
          (bits (Splitmix_ref.gaussian o))
          (bits (Rng.gaussian r))
      done;
      List.iter
        (fun i ->
          let c = Rng.split r i and co = Splitmix_ref.split o i in
          for _ = 1 to 8 do
            Alcotest.(check int64) (label "split child") (Splitmix_ref.next co)
              (Rng.next_int64 c)
          done)
        [ 0; 1; 5; 1000 ];
      Alcotest.(check int64) (label "split leaves the parent")
        (Splitmix_ref.next o) (Rng.next_int64 r);
      List.iter
        (fun k ->
          let skipped = Rng.create seed and drawn = Rng.create seed in
          let oracle = Splitmix_ref.create seed in
          Rng.advance skipped k;
          for _ = 1 to k do
            ignore (Rng.next_int64 drawn);
            ignore (Splitmix_ref.next oracle)
          done;
          let want = Splitmix_ref.next oracle in
          Alcotest.(check int64) (label (Printf.sprintf "advance %d" k)) want
            (Rng.next_int64 skipped);
          Alcotest.(check int64) (label (Printf.sprintf "%d draws" k)) want
            (Rng.next_int64 drawn))
        [ 0; 1; 2; 3; 17; 512; 100_003 ])
    [ 0; 1; 7; 42; -3; max_int; min_int ];
  Tutil.check_raises_invalid "negative advance" (fun () ->
      Rng.advance (Rng.create 1) (-1))

(* ---- distances --------------------------------------------------------- *)

let test_distances () =
  let a = [| 1.; 0.; 1.; 1. |] and b = [| 1.; 1.; 0.; 1. |] in
  Tutil.check_float "hamming" 2. (Distance.hamming a b);
  Tutil.check_float "dot" 2. (Distance.dot a b);
  Tutil.check_float "euclidean_sq" 2. (Distance.euclidean_sq a b);
  Tutil.check_float "euclidean" (sqrt 2.) (Distance.euclidean a b);
  Tutil.check_float "norm2" (sqrt 3.) (Distance.norm2 a);
  Tutil.check_float "cosine" (2. /. 3.) (Distance.cosine a b);
  Tutil.check_float "cosine zero vector" 0.
    (Distance.cosine a [| 0.; 0.; 0.; 0. |]);
  Tutil.check_raises_invalid "length mismatch" (fun () ->
      Distance.hamming a [| 1. |])

let test_topk_and_arg () =
  let v = [| 5.; 1.; 3.; 1. |] in
  Alcotest.(check bool) "topk smallest" true
    (Distance.topk ~k:2 v = [| (1., 1); (1., 3) |]);
  Alcotest.(check bool) "topk largest" true
    (Distance.topk ~largest:true ~k:1 v = [| (5., 0) |]);
  Alcotest.(check int) "argmin" 1 (Distance.argmin v);
  Alcotest.(check int) "argmax" 0 (Distance.argmax v);
  Tutil.check_raises_invalid "k too big" (fun () ->
      ignore (Distance.topk ~k:9 v))

let prop_hamming_triangle =
  QCheck.Test.make ~count:200 ~name:"hamming triangle inequality"
    QCheck.(
      triple
        (array_of_size (Gen.return 16) (QCheck.map float_of_int small_nat))
        (array_of_size (Gen.return 16) (QCheck.map float_of_int small_nat))
        (array_of_size (Gen.return 16) (QCheck.map float_of_int small_nat)))
    (fun (a, b, c) ->
      Distance.hamming a c <= Distance.hamming a b +. Distance.hamming b c)

(* ---- datasets ---------------------------------------------------------- *)

let test_mnist_like () =
  let ds =
    Dataset.mnist_like ~seed:1 ~n_features:20 ~n_classes:3
      ~samples_per_class:5 ()
  in
  Alcotest.(check int) "samples" 15 (Dataset.n_samples ds);
  Alcotest.(check int) "features" 20 (Dataset.n_features ds);
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) "pixel range" true (v >= 0. && v <= 1.))
        row)
    ds.features

let test_dataset_deterministic () =
  let d1 = Dataset.mnist_like ~seed:5 ~n_features:8 ~n_classes:2 ~samples_per_class:3 () in
  let d2 = Dataset.mnist_like ~seed:5 ~n_features:8 ~n_classes:2 ~samples_per_class:3 () in
  Alcotest.(check bool) "same data" true (d1.features = d2.features)

let test_split () =
  let ds =
    Dataset.pneumonia_like ~seed:2 ~n_features:10 ~samples_per_class:50 ()
  in
  let train, test = Dataset.split ~seed:1 ds ~train_fraction:0.8 in
  Alcotest.(check int) "train size" 80 (Dataset.n_samples train);
  Alcotest.(check int) "test size" 20 (Dataset.n_samples test);
  Tutil.check_raises_invalid "bad fraction" (fun () ->
      ignore (Dataset.split ds ~train_fraction:1.5))

(* The sequential pneumonia generator: class centres, then every sample
   in order — the oracle for the generator that skips to the rows it is
   asked for. *)
let pneumonia_sequential ~seed ~n_features ~samples_per_class =
  let separation = 1.2 in
  let rng = Rng.create seed in
  let centers =
    Array.init 2 (fun c ->
        Array.init n_features (fun _ ->
            if c = 0 then Rng.gaussian rng *. 0.5
            else
              (Rng.gaussian rng *. 0.5)
              +. (separation /. sqrt (float_of_int n_features) *. 10.)))
  in
  Array.init (2 * samples_per_class) (fun i ->
      (Array.map (fun m -> m +. Rng.gaussian rng) centers.(i / samples_per_class),
       i / samples_per_class))

let test_pneumonia_rows () =
  let bits rows = Array.map (Array.map Int64.bits_of_float) rows in
  List.iter
    (fun (seed, n_features, spc) ->
      let full = pneumonia_sequential ~seed ~n_features ~samples_per_class:spc in
      let check what idxs (ds : Dataset.t) =
        Alcotest.(check (array (array int64)))
          (Printf.sprintf "%s features (seed %d)" what seed)
          (bits (Array.map (fun i -> fst full.(i)) idxs))
          (bits ds.features);
        Alcotest.(check (array int))
          (Printf.sprintf "%s labels (seed %d)" what seed)
          (Array.map (fun i -> snd full.(i)) idxs)
          ds.labels
      in
      let n = 2 * spc in
      check "pneumonia_like" (Array.init n Fun.id)
        (Dataset.pneumonia_like ~seed ~n_features ~samples_per_class:spc ());
      let r = Rng.create (seed + 100) in
      let idxs = Array.init (n / 2) (fun _ -> Rng.int r n) in
      check "pneumonia_rows" idxs
        (Dataset.pneumonia_rows ~seed ~n_features ~samples_per_class:spc idxs);
      let train, test = Dataset.split_indices ~seed n ~train_fraction:0.7 in
      Alcotest.(check (list int)) "split indices are a permutation"
        (List.init n Fun.id)
        (List.sort compare (Array.to_list (Array.append train test)));
      Tutil.check_raises_invalid "index past the end" (fun () ->
          ignore
            (Dataset.pneumonia_rows ~seed ~n_features ~samples_per_class:spc
               [| n |])))
    [ (7, 10, 5); (17, 256, 24); (3, 1, 1) ]

(* ---- HDC --------------------------------------------------------------- *)

let hdc_config = { Hdc.default_config with dims = 512; levels = 8 }

let test_item_memory_shapes () =
  let im = Hdc.item_memory hdc_config ~n_features:16 in
  let hv = Hdc.encode hdc_config im (Array.make 16 0.5) in
  Alcotest.(check int) "hv dims" 512 (Array.length hv);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "binary values" true (v = 0. || v = 1.))
    hv

let test_encoding_locality () =
  (* Similar inputs encode to similar hypervectors; dissimilar inputs to
     near-orthogonal ones. *)
  let im = Hdc.item_memory hdc_config ~n_features:32 in
  let rng = Rng.create 9 in
  let x = Array.init 32 (fun _ -> Rng.float rng) in
  let x_near = Array.map (fun v -> Float.min 1. (v +. 0.02)) x in
  let y = Array.init 32 (fun _ -> Rng.float rng) in
  let e = Hdc.encode hdc_config im in
  let d_near = Distance.hamming (e x) (e x_near) in
  let d_far = Distance.hamming (e x) (e y) in
  Alcotest.(check bool)
    (Printf.sprintf "near %g < far %g" d_near d_far)
    true (d_near < d_far)

let test_hdc_train_and_accuracy () =
  let ds =
    Dataset.mnist_like ~seed:5 ~n_features:32 ~n_classes:4
      ~samples_per_class:20 ()
  in
  let train, test = Dataset.split ~seed:9 ds ~train_fraction:0.75 in
  let im, model = Hdc.train hdc_config train in
  let acc = Hdc.accuracy_ref model im test in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.2f > 0.8" acc)
    true (acc > 0.8);
  Alcotest.(check int) "4 prototypes" 4 (Array.length model.class_hvs)

let test_hdc_multibit_values () =
  let config = { hdc_config with bits = 2 } in
  let ds =
    Dataset.mnist_like ~seed:5 ~n_features:16 ~n_classes:2
      ~samples_per_class:8 ()
  in
  let _, model = Hdc.train config ds in
  Array.iter
    (Array.iter (fun v ->
         Alcotest.(check bool) "2-bit prototype values" true
           (v >= 0. && v <= 3. && Float.is_integer v)))
    model.class_hvs

let test_synthetic_hdc () =
  let s = Hdc.synthetic ~seed:4 ~dims:128 ~n_classes:5 ~n_queries:20 ~bits:1 () in
  Alcotest.(check int) "stored" 5 (Array.length s.stored);
  Alcotest.(check int) "queries" 20 (Array.length s.queries);
  (* noisy queries stay closest to their own prototype *)
  let correct = ref 0 in
  Array.iteri
    (fun i q ->
      let dists = Array.map (Distance.hamming q) s.stored in
      if Distance.argmin dists = s.query_labels.(i) then incr correct)
    s.queries;
  Alcotest.(check bool) "nearly all classified" true (!correct >= 18)

(* ---- KNN --------------------------------------------------------------- *)

let test_knn_classify () =
  let train =
    {
      Dataset.features =
        [| [| 0.; 0. |]; [| 0.; 1. |]; [| 10.; 10. |]; [| 10.; 11. |] |];
      labels = [| 0; 0; 1; 1 |];
      n_classes = 2;
    }
  in
  Alcotest.(check int) "near cluster 0" 0
    (Knn.classify ~train ~k:3 [| 0.5; 0.5 |]);
  Alcotest.(check int) "near cluster 1" 1
    (Knn.classify ~train ~k:3 [| 9.; 10. |]);
  let nn = Knn.neighbours ~train ~k:2 [| 0.; 0. |] in
  Alcotest.(check int) "first neighbour" 0 (snd nn.(0))

let test_knn_accuracy () =
  let ds =
    Dataset.pneumonia_like ~seed:8 ~n_features:32 ~samples_per_class:60 ()
  in
  let train, test = Dataset.split ~seed:2 ds ~train_fraction:0.8 in
  let acc = Knn.accuracy ~train ~test ~k:5 in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.2f > 0.85" acc)
    true (acc > 0.85)

let () =
  Alcotest.run "workloads"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutes;
          Alcotest.test_case "splitmix64 oracle" `Quick
            test_prng_splitmix_oracle;
        ] );
      ( "distance",
        [
          Alcotest.test_case "metrics" `Quick test_distances;
          Alcotest.test_case "topk/argmin" `Quick test_topk_and_arg;
          QCheck_alcotest.to_alcotest prop_hamming_triangle;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "mnist-like" `Quick test_mnist_like;
          Alcotest.test_case "deterministic" `Quick test_dataset_deterministic;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "pneumonia rows" `Quick test_pneumonia_rows;
        ] );
      ( "hdc",
        [
          Alcotest.test_case "item memory" `Quick test_item_memory_shapes;
          Alcotest.test_case "encoding locality" `Quick test_encoding_locality;
          Alcotest.test_case "train/accuracy" `Quick test_hdc_train_and_accuracy;
          Alcotest.test_case "multi-bit values" `Quick test_hdc_multibit_values;
          Alcotest.test_case "synthetic" `Quick test_synthetic_hdc;
        ] );
      ( "knn",
        [
          Alcotest.test_case "classify" `Quick test_knn_classify;
          Alcotest.test_case "accuracy" `Quick test_knn_accuracy;
        ] );
    ]
