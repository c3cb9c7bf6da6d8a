(* Architecture specification: defaults, presets, parsing, round trips. *)

open Archspec

let test_default () =
  Alcotest.(check int) "rows" 32 Spec.default.rows;
  Alcotest.(check int) "subarrays" 8 Spec.default.subarrays_per_array;
  Alcotest.(check int) "arrays" 4 Spec.default.arrays_per_mat;
  Alcotest.(check int) "mats" 4 Spec.default.mats_per_bank;
  Alcotest.(check bool) "banks auto" true (Spec.default.max_banks = None);
  Alcotest.(check int) "128 subarrays per bank" 128
    (Spec.subarrays_per_bank Spec.default)

let test_square () =
  let s = Spec.square 64 Spec.Power in
  Alcotest.(check int) "rows" 64 s.rows;
  Alcotest.(check int) "cols" 64 s.cols;
  Alcotest.(check bool) "power serializes subarrays" true
    (s.subarray_mode = Spec.Sequential);
  Alcotest.(check int) "cells" 4096 (Spec.cells_per_subarray s)

let test_with_optimization () =
  let s = Spec.with_optimization Spec.default Spec.Density in
  Alcotest.(check bool) "density keeps parallel" true
    (s.subarray_mode = Spec.Parallel);
  let p = Spec.with_optimization Spec.default Spec.Power_density in
  Alcotest.(check bool) "power+density serializes" true
    (p.subarray_mode = Spec.Sequential)

let test_to_string_round_trip () =
  List.iter
    (fun s ->
      match Spec.of_string (Spec.to_string s) with
      | Ok s' ->
          Alcotest.(check string) "round trip" (Spec.to_string s)
            (Spec.to_string s')
      | Error e -> Alcotest.fail e)
    [
      Spec.default;
      Spec.square 16 Spec.Power_density;
      { Spec.default with max_banks = Some 7; cam_kind = Spec.Acam; bits = 3 };
      { Spec.default with bank_mode = Spec.Sequential };
    ]

let test_parse_config () =
  let src =
    "# paper configuration\n\
     rows = 32\n\
     cols = 64   # wide subarray\n\
     subarrays_per_array = 8\n\
     cam = mcam\n\
     bits = 2\n\
     optimization = power\n\
     banks = auto\n"
  in
  match Spec.of_string src with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check int) "cols" 64 s.cols;
      Alcotest.(check bool) "kind" true (s.cam_kind = Spec.Mcam);
      Alcotest.(check int) "bits" 2 s.bits;
      Alcotest.(check bool) "power applied" true
        (s.subarray_mode = Spec.Sequential)

let test_parse_aliases () =
  (* the paper names the targets latency/power/utilization *)
  List.iter
    (fun (alias, expect) ->
      match Spec.of_string ("optimization = " ^ alias) with
      | Ok s ->
          Alcotest.(check string) alias
            (Spec.optimization_to_string expect)
            (Spec.optimization_to_string s.optimization)
      | Error e -> Alcotest.fail e)
    [
      ("latency", Spec.Base); ("power", Spec.Power);
      ("utilization", Spec.Density); ("power+density", Spec.Power_density);
    ]

let test_parse_errors () =
  let bad what src =
    match Spec.of_string src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected an error" what
  in
  bad "unknown key" "wombats = 3";
  bad "bad integer" "rows = many";
  bad "no equals" "rows 32";
  bad "unknown mode" "bank_mode = diagonal";
  bad "zero size" "rows = 0";
  bad "huge bits" "bits = 9"

let test_validate () =
  Alcotest.(check bool) "default validates" true
    (Spec.validate Spec.default = Ok ());
  Alcotest.(check bool) "negative banks rejected" true
    (Spec.validate { Spec.default with max_banks = Some 0 } <> Ok ())

let test_load_missing_file () =
  match Spec.load "/nonexistent/path/c4cam.conf" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must error"

let prop_round_trip =
  let gen =
    QCheck.Gen.(
      let* rows = int_range 1 512 in
      let* cols = int_range 1 512 in
      let* s = int_range 1 16 in
      let* a = int_range 1 16 in
      let* t = int_range 1 16 in
      let* banks = oneof [ return None; map (fun b -> Some b) (int_range 1 64) ] in
      let* kind = oneofl Spec.[ Tcam; Bcam; Mcam; Acam ] in
      let* bits = int_range 1 8 in
      let* opt = oneofl Spec.[ Base; Power; Density; Power_density ] in
      return
        (Spec.with_optimization
           {
             Spec.default with
             rows; cols; subarrays_per_array = s; arrays_per_mat = a;
             mats_per_bank = t; max_banks = banks; cam_kind = kind; bits;
           }
           opt))
  in
  QCheck.Test.make ~count:200 ~name:"spec text round trip" (QCheck.make gen)
    (fun s ->
      match Spec.of_string (Spec.to_string s) with
      | Ok s' -> Spec.to_string s = Spec.to_string s'
      | Error _ -> false)

(* Only [Error] may come back from the spec parser, whatever bytes the
   text of a valid spec is mutated or truncated into. *)
let prop_mutated_specs_refused_cleanly =
  let seeds =
    List.concat_map
      (fun side ->
        List.map
          (fun opt -> Spec.to_string (Spec.square side opt))
          Spec.[ Base; Power; Density; Power_density ])
      [ 16; 32; 64 ]
    @ [ Spec.to_string { Spec.default with max_banks = Some 4; bits = 2 } ]
  in
  QCheck.Test.make ~count:1000 ~name:"mutated spec text never raises"
    (Tutil.mutant seeds)
    (fun src ->
      match Spec.of_string src with Ok _ | Error _ -> true)

let () =
  Alcotest.run "archspec"
    [
      ( "presets",
        [
          Alcotest.test_case "default" `Quick test_default;
          Alcotest.test_case "square" `Quick test_square;
          Alcotest.test_case "with_optimization" `Quick test_with_optimization;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "round trip" `Quick test_to_string_round_trip;
          Alcotest.test_case "config file" `Quick test_parse_config;
          Alcotest.test_case "optimization aliases" `Quick test_parse_aliases;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          QCheck_alcotest.to_alcotest prop_round_trip;
          QCheck_alcotest.to_alcotest prop_mutated_specs_refused_cleanly;
        ] );
    ]
