(* cam-map: allocation arithmetic, emitted loop structure, the cam-power
   rewrite, and stats of the executed mapping. *)

open Ir

let compile ?(opt = Archspec.Spec.Base) ?(side = 16) ?(q = 4) ?(dims = 64)
    ?(classes = 4) () =
  let spec = Archspec.Spec.square side opt in
  C4cam.Driver.compile ~spec (Tutil.hdc_source ~q ~dims ~classes ())

let test_mapping_arithmetic () =
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  let m = Passes.Cam_map.mapping_of spec ~row_chunks:1 ~col_chunks:256 ~batches:1 in
  Alcotest.(check int) "tiles" 256 m.tiles;
  Alcotest.(check int) "slots" 256 m.slots;
  Alcotest.(check int) "banks (128 slots per bank)" 2 m.banks;
  let md = Passes.Cam_map.mapping_of spec ~row_chunks:1 ~col_chunks:256 ~batches:3 in
  Alcotest.(check int) "density slots" 86 md.slots;
  Alcotest.(check int) "density banks" 1 md.banks

let test_mapping_respects_max_banks () =
  let spec =
    { (Archspec.Spec.square 32 Archspec.Spec.Base) with max_banks = Some 1 }
  in
  match Passes.Cam_map.mapping_of spec ~row_chunks:1 ~col_chunks:256 ~batches:1 with
  | _ -> Alcotest.fail "expected a pass error for bank overflow"
  | exception Pass.Pass_error _ -> ()

let loop_kinds (m : Func_ir.modul) =
  let fn = Func_ir.find_func_exn m "forward" in
  Walk.collect
    (fun o ->
      String.equal o.Op.op_name "scf.parallel"
      || String.equal o.Op.op_name "scf.for")
    fn
  |> List.map (fun (o : Op.t) -> o.op_name)

let test_base_loops_parallel () =
  let c = compile () in
  (* bank, mat, array, subarray parallel; the batch loop is a for *)
  Alcotest.(check (list string)) "loop kinds"
    [ "scf.parallel"; "scf.parallel"; "scf.parallel"; "scf.parallel";
      "scf.for" ]
    (loop_kinds c.cam_ir)

let test_power_serializes_subarray_loop () =
  let c = compile ~opt:Archspec.Spec.Power () in
  Alcotest.(check (list string)) "subarray loop sequential"
    [ "scf.parallel"; "scf.parallel"; "scf.parallel"; "scf.for"; "scf.for" ]
    (loop_kinds c.cam_ir)

let test_subarray_loop_detection () =
  let c = compile () in
  Alcotest.(check int) "one subarray loop" 1
    (List.length (Passes.Cam_opt.subarray_loops c.cam_ir))

let test_cam_ops_present () =
  let c = compile () in
  let fn = Func_ir.find_func_exn c.cam_ir "forward" in
  let has name =
    Walk.collect (fun o -> String.equal o.Op.op_name name) fn <> []
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (has n))
    [
      "cam.alloc_bank"; "cam.alloc_mat"; "cam.alloc_array";
      "cam.alloc_subarray"; "cam.write_value"; "cam.search"; "cam.read";
      "cam.merge_partial"; "cam.select_best"; "memref.alloc";
      "memref.subview";
    ]

let test_mapped_function_is_bufferized () =
  let c = compile () in
  let fn = Func_ir.find_func_exn c.cam_ir "forward" in
  List.iter
    (fun (a : Value.t) ->
      Alcotest.(check bool) "arg is memref" true
        (match a.ty with Types.Memref _ -> true | _ -> false))
    fn.fn_args;
  List.iter
    (fun t ->
      Alcotest.(check bool) "result is memref" true
        (match t with Types.Memref _ -> true | _ -> false))
    fn.fn_ret

let test_metric_mapping () =
  (* dot lowers to hamming search with flipped selection *)
  let c = compile () in
  let fn = Func_ir.find_func_exn c.cam_ir "forward" in
  let search =
    List.hd (Walk.collect (fun o -> String.equal o.Op.op_name "cam.search") fn)
  in
  Alcotest.(check string) "hamming metric" "hamming"
    (Attr.as_sym (Op.attr_exn search "metric"));
  let select =
    List.hd
      (Walk.collect (fun o -> String.equal o.Op.op_name "cam.select_best") fn)
  in
  (* kernel uses largest=true dot, so CAM selects the smallest distance *)
  Alcotest.(check bool) "selection flipped" false
    (Attr.as_bool (Op.attr_exn select "largest"))

let test_euclidean_requires_mcam () =
  let spec = Archspec.Spec.square 16 Archspec.Spec.Base in
  let src = Workloads.Kernels.knn_euclidean ~q:2 ~dims:32 ~n:16 ~k:1 in
  (match C4cam.Driver.compile ~spec src with
  | _ -> Alcotest.fail "TCAM must reject euclidean"
  | exception C4cam.Driver.Compile_error msg ->
      Alcotest.(check bool) "helpful error" true
        (String.length msg > 10));
  let spec = { spec with cam_kind = Archspec.Spec.Mcam } in
  ignore (C4cam.Driver.compile ~spec src)

let test_allocation_counts_match_mapping () =
  (* Run the mapped module and compare simulator allocation stats with
     the mapping arithmetic, including a partially-filled bank. *)
  List.iter
    (fun (side, opt) ->
      let spec = Archspec.Spec.square side opt in
      let dims = 1024 in
      let data =
        Workloads.Hdc.synthetic ~dims ~n_classes:10 ~n_queries:3 ~bits:1 ()
      in
      let m = C4cam.Dse.hdc ~spec ~data () in
      let batches = Passes.Cim_partition.batches_for spec ~stored_rows:10 in
      let expected =
        Passes.Cam_map.mapping_of spec ~row_chunks:1
          ~col_chunks:(dims / side) ~batches
      in
      Alcotest.(check int)
        (Printf.sprintf "subarrays %dx%d %s" side side
           (Archspec.Spec.optimization_to_string opt))
        expected.slots m.subarrays;
      Alcotest.(check int) "banks" expected.banks m.banks)
    [ (16, Archspec.Spec.Base); (32, Archspec.Spec.Base);
      (32, Archspec.Spec.Density); (64, Archspec.Spec.Density) ]

let test_stage_texts_verify () =
  let c = compile ~side:32 () in
  List.iter
    (fun (stage, text) ->
      let m = Parser.parse_module text in
      match Verifier.verify_module ~strict:true m with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s stage does not verify: %s" stage
            (Verifier.error_to_string e))
    (C4cam.Driver.stage_texts c)

let () =
  Alcotest.run "cam_map"
    [
      ( "mapping",
        [
          Alcotest.test_case "arithmetic" `Quick test_mapping_arithmetic;
          Alcotest.test_case "max banks" `Quick test_mapping_respects_max_banks;
          Alcotest.test_case "allocation counts" `Quick
            test_allocation_counts_match_mapping;
        ] );
      ( "structure",
        [
          Alcotest.test_case "base loops parallel" `Quick
            test_base_loops_parallel;
          Alcotest.test_case "power serializes" `Quick
            test_power_serializes_subarray_loop;
          Alcotest.test_case "subarray loop detection" `Quick
            test_subarray_loop_detection;
          Alcotest.test_case "cam ops present" `Quick test_cam_ops_present;
          Alcotest.test_case "bufferized" `Quick
            test_mapped_function_is_bufferized;
          Alcotest.test_case "stage texts verify" `Quick
            test_stage_texts_verify;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "dot to hamming" `Quick test_metric_mapping;
          Alcotest.test_case "euclidean needs mcam" `Quick
            test_euclidean_requires_mcam;
        ] );
    ]
