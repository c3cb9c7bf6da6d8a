(* CART decision trees and their DT2CAM-style ternary mapping. *)

open Workloads

let dataset ?(seed = 23) () =
  Dataset.mnist_like ~seed ~n_features:10 ~n_classes:3 ~samples_per_class:40
    ()

let test_train_shape () =
  let model = Decision_tree.train ~max_depth:4 ~bins:8 (dataset ()) in
  Alcotest.(check bool) "depth bounded" true
    (Decision_tree.depth model.tree <= 4);
  Alcotest.(check bool) "has leaves" true
    (Decision_tree.n_leaves model.tree >= 2);
  Alcotest.(check int) "bins stored" 8 model.bins

let test_training_accuracy () =
  let ds = dataset () in
  let train, test = Dataset.split ~seed:4 ds ~train_fraction:0.75 in
  let model = Decision_tree.train ~max_depth:6 ~bins:8 train in
  let acc = Decision_tree.accuracy model test in
  Alcotest.(check bool)
    (Printf.sprintf "test accuracy %.2f > 0.8" acc)
    true (acc > 0.8)

let test_pure_node_is_leaf () =
  (* A one-class dataset trains to a single leaf. *)
  let ds =
    {
      Dataset.features = Array.make 10 [| 0.5; 0.5 |];
      labels = Array.make 10 1;
      n_classes = 2;
    }
  in
  let model = Decision_tree.train ds in
  Alcotest.(check int) "single leaf" 1 (Decision_tree.n_leaves model.tree);
  Alcotest.(check int) "predicts the class" 1
    (Decision_tree.predict model [| 0.; 0. |])

let test_quantize_clamps () =
  let ds = dataset () in
  let model = Decision_tree.train ~bins:8 ds in
  let below = Array.map (fun lo -> lo -. 100.) model.mins in
  let above = Array.map (fun hi -> hi +. 100.) model.maxs in
  Array.iter
    (fun b -> Alcotest.(check int) "clamped low" 0 b)
    (Decision_tree.quantize model below);
  Array.iter
    (fun b -> Alcotest.(check int) "clamped high" 7 b)
    (Decision_tree.quantize model above)

let test_rules_structure () =
  let model = Decision_tree.train ~max_depth:5 ~bins:8 (dataset ()) in
  let rules = Decision_tree.to_rules model in
  Alcotest.(check int) "one rule per leaf"
    (Decision_tree.n_leaves model.tree)
    (Array.length rules.patterns);
  Alcotest.(check int) "width = features x (bins-1)" (10 * 7) rules.width;
  (* each rule pins at most depth cells *)
  Array.iter
    (fun care ->
      let pinned = Array.fold_left (fun a c -> if c then a + 1 else a) 0 care in
      Alcotest.(check bool) "sparse constraints" true
        (pinned <= Decision_tree.depth model.tree))
    rules.care

let test_thermometer_encoding () =
  let model = Decision_tree.train ~bins:4 (dataset ()) in
  let q = Decision_tree.encode_query model model.mins in
  (* minimum value -> bin 0 -> all thermometer bits 0 *)
  Array.iter (fun b -> Tutil.check_float "min encodes to zeros" 0. b) q;
  let q = Decision_tree.encode_query model model.maxs in
  Array.iter (fun b -> Tutil.check_float "max encodes to ones" 1. b) q

let test_cam_matches_software () =
  let ds = dataset ~seed:31 () in
  let train, test = Dataset.split ~seed:8 ds ~train_fraction:0.7 in
  let model = Decision_tree.train ~max_depth:6 ~bins:8 train in
  let rules = Decision_tree.to_rules model in
  let spec =
    {
      (Archspec.Spec.square 32 Archspec.Spec.Base) with
      rows = max 32 (Array.length rules.patterns);
      cols = rules.width;
    }
  in
  let sim = Camsim.Simulator.create spec in
  let bank = Camsim.Simulator.alloc_bank sim ~rows:spec.rows ~cols:spec.cols in
  let mat = Camsim.Simulator.alloc_mat sim bank in
  let arr = Camsim.Simulator.alloc_array sim mat in
  let sub = Camsim.Simulator.alloc_subarray sim arr in
  let cam = Decision_tree.classify_cam sim sub rules model test.features in
  Array.iteri
    (fun i p ->
      Alcotest.(check int)
        (Printf.sprintf "query %d" i)
        (Decision_tree.predict model test.features.(i))
        p)
    cam

(* Property: every in-range sample matches exactly one rule. *)
let prop_rules_partition =
  QCheck.Test.make ~count:100 ~name:"leaf rules partition the input space"
    (QCheck.make
       QCheck.Gen.(list_size (return 10) (float_bound_inclusive 1.)))
    (fun sample ->
      let model = Decision_tree.train ~max_depth:5 ~bins:8 (dataset ()) in
      let rules = Decision_tree.to_rules model in
      let q = Decision_tree.encode_query model (Array.of_list sample) in
      let matching = ref 0 in
      Array.iteri
        (fun r pattern ->
          let ok = ref true in
          Array.iteri
            (fun j v -> if rules.care.(r).(j) && v <> q.(j) then ok := false)
            pattern;
          if !ok then incr matching)
        rules.patterns;
      !matching = 1)

(* CART by brute force: every node rescans its samples once per
   (feature, threshold) — the oracle for the histogram search. *)
let reference_cart ~max_depth ~min_samples ~bins (ds : Dataset.t) =
  let n_features = Dataset.n_features ds in
  let mins = Array.make n_features Float.infinity in
  let maxs = Array.make n_features Float.neg_infinity in
  Array.iter
    (Array.iteri (fun f v ->
         if v < mins.(f) then mins.(f) <- v;
         if v > maxs.(f) then maxs.(f) <- v))
    ds.features;
  let bin f v =
    if maxs.(f) <= mins.(f) then 0
    else
      let b =
        int_of_float ((v -. mins.(f)) /. (maxs.(f) -. mins.(f)) *. float_of_int bins)
      in
      if b < 0 then 0 else if b >= bins then bins - 1 else b
  in
  let binned = Array.map (Array.mapi bin) ds.features in
  let count idxs =
    let c = Array.make ds.n_classes 0 in
    List.iter (fun i -> c.(ds.labels.(i)) <- c.(ds.labels.(i)) + 1) idxs;
    c
  in
  let gini c total =
    if total = 0 then 0.
    else
      1.
      -. Array.fold_left
           (fun acc k ->
             let p = float_of_int k /. float_of_int total in
             acc +. (p *. p))
           0. c
  in
  let majority c =
    let best = ref 0 in
    Array.iteri (fun k v -> if v > c.(!best) then best := k) c;
    !best
  in
  let rec grow idxs depth =
    let counts = count idxs and total = List.length idxs in
    if depth >= max_depth || total < min_samples
       || Array.exists (( = ) total) counts
    then Decision_tree.Leaf (majority counts)
    else begin
      let best = ref None in
      for f = 0 to n_features - 1 do
        for t = 0 to bins - 2 do
          let l, r = List.partition (fun i -> binned.(i).(f) <= t) idxs in
          let ln = List.length l and rn = List.length r in
          if ln > 0 && rn > 0 then begin
            let w =
              (float_of_int ln *. gini (count l) ln
              +. float_of_int rn *. gini (count r) rn)
              /. float_of_int total
            in
            let gain = gini counts total -. w in
            match !best with
            | Some (g, _, _) when g >= gain -> ()
            | _ -> if gain > 1e-9 then best := Some (gain, f, t)
          end
        done
      done;
      match !best with
      | None -> Leaf (majority counts)
      | Some (_, f, t) ->
          let l, r = List.partition (fun i -> binned.(i).(f) <= t) idxs in
          Node
            {
              feature = f;
              threshold = t;
              left = grow l (depth + 1);
              right = grow r (depth + 1);
            }
    end
  in
  grow (List.init (Dataset.n_samples ds) Fun.id) 0

(* Property: the histogram CART grows exactly the brute-force tree.
   Features take few distinct values, so bins and gains tie often. *)
let prop_matches_brute_force =
  let gen =
    QCheck.Gen.(
      let* classes = int_range 2 5 and* bins = int_range 2 16 in
      let* depth = int_range 1 6 and* min_samples = int_range 1 6 in
      let* n = int_range 1 60 and* features = int_range 1 5 in
      let* levels = int_range 1 6 in
      let* rows =
        array_size (return n)
          (pair (array_size (return features) (int_bound (levels - 1)))
             (int_bound (classes - 1)))
      in
      return (classes, bins, depth, min_samples, rows))
  in
  let print (classes, bins, depth, min_samples, rows) =
    Printf.sprintf "classes %d bins %d depth %d min %d, %d rows" classes bins
      depth min_samples (Array.length rows)
  in
  QCheck.Test.make ~count:300 ~name:"cart matches brute-force search"
    (QCheck.make ~print gen)
    (fun (classes, bins, max_depth, min_samples, rows) ->
      let ds =
        {
          Dataset.features =
            Array.map (fun (xs, _) -> Array.map float_of_int xs) rows;
          labels = Array.map snd rows;
          n_classes = classes;
        }
      in
      let model = Decision_tree.train ~max_depth ~min_samples ~bins ds in
      model.tree = reference_cart ~max_depth ~min_samples ~bins ds)

let () =
  Alcotest.run "decision_tree"
    [
      ( "cart",
        [
          Alcotest.test_case "train shape" `Quick test_train_shape;
          Alcotest.test_case "accuracy" `Quick test_training_accuracy;
          Alcotest.test_case "pure node" `Quick test_pure_node_is_leaf;
          Alcotest.test_case "quantize clamps" `Quick test_quantize_clamps;
          QCheck_alcotest.to_alcotest prop_matches_brute_force;
        ] );
      ( "tcam mapping",
        [
          Alcotest.test_case "rules structure" `Quick test_rules_structure;
          Alcotest.test_case "thermometer encoding" `Quick
            test_thermometer_encoding;
          Alcotest.test_case "cam matches software" `Quick
            test_cam_matches_software;
          QCheck_alcotest.to_alcotest prop_rules_partition;
        ] );
    ]
