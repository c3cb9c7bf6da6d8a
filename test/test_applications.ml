(* Application workloads on the device API: approximate genome matching
   (EDAM-style) and few-shot episodic memory. *)

open Workloads

(* ---- genome ------------------------------------------------------------ *)

let test_sequence_round_trip () =
  let s = Genome.of_string "ACGTAC" in
  Alcotest.(check string) "round trip" "ACGTAC" (Genome.to_string s);
  Tutil.check_raises_invalid "bad base" (fun () -> Genome.of_string "ACGX")

let test_encode_one_hot () =
  let e = Genome.encode (Genome.of_string "AG") in
  Alcotest.(check (array (float 0.))) "one-hot"
    [| 1.; 0.; 0.; 0.; 0.; 0.; 1.; 0. |]
    e

let test_kmers () =
  let s = Genome.of_string "ACGTA" in
  let ws = Genome.kmers s ~k:3 in
  Alcotest.(check int) "count" 3 (Array.length ws);
  Alcotest.(check string) "first" "ACG" (Genome.to_string ws.(0));
  Alcotest.(check string) "last" "GTA" (Genome.to_string ws.(2));
  Tutil.check_raises_invalid "k too large" (fun () ->
      ignore (Genome.kmers s ~k:9))

let test_mismatches () =
  let a = Genome.of_string "ACGT" and b = Genome.of_string "ACCA" in
  Alcotest.(check int) "two" 2 (Genome.mismatches a b);
  Alcotest.(check int) "zero" 0 (Genome.mismatches a a)

let test_mutate_rate () =
  let s = Genome.random_sequence ~seed:3 400 in
  let m = Genome.mutate ~seed:4 s ~rate:0.25 in
  let d = Genome.mismatches s m in
  Alcotest.(check bool)
    (Printf.sprintf "%d mutations is near 100" d)
    true
    (d > 60 && d < 140);
  Alcotest.(check int) "rate 0 changes nothing" 0
    (Genome.mismatches s (Genome.mutate s ~rate:0.))

let test_cam_scan_equals_software () =
  let reference = Genome.random_sequence ~seed:9 300 in
  let index = Genome.build_index ~reference ~k:16 () in
  (* patterns cut from the reference and mutated *)
  List.iter
    (fun (pos, rate, budget) ->
      let pattern =
        Genome.mutate ~seed:(pos * 7) (Array.sub reference pos 16) ~rate
      in
      let cam = Genome.scan_cam index ~pattern ~max_mismatches:budget in
      let sw =
        Genome.scan_software ~reference ~pattern ~max_mismatches:budget
      in
      Alcotest.(check (list int))
        (Printf.sprintf "pos %d rate %.2f budget %d" pos rate budget)
        sw cam;
      if rate = 0. then
        Alcotest.(check bool) "origin found" true (List.mem pos cam))
    [ (0, 0., 0); (42, 0., 1); (100, 0.1, 3); (200, 0.2, 5); (283, 0., 0) ]

let test_index_capacity_errors () =
  let reference = Genome.random_sequence ~seed:1 100 in
  Tutil.check_raises_invalid "does not fit" (fun () ->
      Genome.build_index
        ~spec:{ Archspec.Spec.default with rows = 8; cols = 64 }
        ~reference ~k:16 ());
  let index = Genome.build_index ~reference ~k:16 () in
  Tutil.check_raises_invalid "wrong pattern length" (fun () ->
      ignore
        (Genome.scan_cam index
           ~pattern:(Genome.random_sequence ~seed:2 8)
           ~max_mismatches:0))

(* ---- few-shot ------------------------------------------------------------ *)

let embedder = Few_shot.embedder ~in_dim:32 ~out_dim:128 ()

let test_embed_binary_and_deterministic () =
  let rng = Rng.create 3 in
  let x = Array.init 32 (fun _ -> Rng.gaussian rng) in
  let k1 = Few_shot.embed embedder x in
  let k2 = Few_shot.embed embedder x in
  Alcotest.(check bool) "deterministic" true (k1 = k2);
  Array.iter
    (fun v -> Alcotest.(check bool) "binary" true (v = 0. || v = 1.))
    k1

let test_embedding_preserves_similarity () =
  let rng = Rng.create 5 in
  let x = Array.init 32 (fun _ -> Rng.gaussian rng) in
  let near = Array.map (fun v -> v +. (0.05 *. Rng.gaussian rng)) x in
  let far = Array.init 32 (fun _ -> Rng.gaussian rng) in
  let e = Few_shot.embed embedder in
  Alcotest.(check bool) "locality-sensitive" true
    (Distance.hamming (e x) (e near) < Distance.hamming (e x) (e far))

let test_episode_shapes () =
  let ep =
    Few_shot.make_episode ~n_way:5 ~k_shot:3 ~n_queries:7 ~dim:32 ()
  in
  Alcotest.(check int) "support" 15 (Array.length ep.support);
  Alcotest.(check int) "queries" 7 (Array.length ep.queries);
  Array.iter
    (fun l -> Alcotest.(check bool) "label range" true (l >= 0 && l < 5))
    ep.support_labels

let test_cam_equals_software () =
  List.iter
    (fun seed ->
      let ep =
        Few_shot.make_episode ~seed ~n_way:5 ~k_shot:5 ~n_queries:12
          ~dim:32 ()
      in
      let cam, _ = Few_shot.classify_cam embedder ep ~k:3 in
      let sw = Few_shot.classify_software embedder ep ~k:3 in
      Alcotest.(check (array int))
        (Printf.sprintf "episode %d" seed)
        sw cam)
    [ 1; 2; 3; 4 ]

let test_few_shot_accuracy () =
  let total = ref 0. in
  for seed = 1 to 8 do
    let ep =
      Few_shot.make_episode ~seed ~noise:0.2 ~n_way:5 ~k_shot:5
        ~n_queries:20 ~dim:32 ()
    in
    let cam, _ = Few_shot.classify_cam embedder ep ~k:3 in
    total := !total +. Few_shot.episode_accuracy cam ep.query_labels
  done;
  let mean = !total /. 8. in
  Alcotest.(check bool)
    (Printf.sprintf "mean accuracy %.2f > 0.85" mean)
    true (mean > 0.85)

let test_support_must_fit () =
  let ep = Few_shot.make_episode ~n_way:5 ~k_shot:5 ~n_queries:2 ~dim:32 () in
  Tutil.check_raises_invalid "tiny subarray rejected" (fun () ->
      ignore
        (Few_shot.classify_cam
           ~spec:{ Archspec.Spec.default with rows = 4; cols = 128 }
           embedder ep ~k:1))

let () =
  Alcotest.run "applications"
    [
      ( "genome",
        [
          Alcotest.test_case "round trip" `Quick test_sequence_round_trip;
          Alcotest.test_case "one-hot" `Quick test_encode_one_hot;
          Alcotest.test_case "kmers" `Quick test_kmers;
          Alcotest.test_case "mismatches" `Quick test_mismatches;
          Alcotest.test_case "mutate rate" `Quick test_mutate_rate;
          Alcotest.test_case "cam = software scan" `Quick
            test_cam_scan_equals_software;
          Alcotest.test_case "capacity errors" `Quick
            test_index_capacity_errors;
        ] );
      ( "few-shot",
        [
          Alcotest.test_case "binary embedding" `Quick
            test_embed_binary_and_deterministic;
          Alcotest.test_case "locality" `Quick
            test_embedding_preserves_similarity;
          Alcotest.test_case "episode shapes" `Quick test_episode_shapes;
          Alcotest.test_case "cam = software" `Quick test_cam_equals_software;
          Alcotest.test_case "accuracy" `Quick test_few_shot_accuracy;
          Alcotest.test_case "capacity" `Quick test_support_must_fit;
        ] );
    ]
