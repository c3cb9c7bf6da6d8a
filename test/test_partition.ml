(* cim-partition: tiling arithmetic, Table I reproduction, the compact
   region every compile emits, the expanded region built on demand, and
   software equivalence of both forms. *)

open Ir

let partitioned ~spec ?(q = 4) ?(dims = 64) ?(classes = 4) () =
  Tutil.hdc_torch ~q ~dims ~classes ()
  |> Pass.run Passes.Torch_to_cim.pass
  |> Pass.run Passes.Cim_fusion.pass
  |> Pass.run (Passes.Cim_partition.pass spec)

let expanded ~spec ?q ?dims ?classes () =
  Passes.Cim_partition.expand (partitioned ~spec ?q ?dims ?classes ())

let find_wrapper m =
  let fn = Func_ir.find_func_exn m "forward" in
  List.hd
    (Walk.collect
       (fun o ->
         String.equal o.Op.op_name "cim.partitioned_similarity")
       fn)

let attr_i op key = Attr.as_int (Op.attr_exn op key)

let test_tiling_attrs () =
  let spec = Archspec.Spec.square 16 Archspec.Spec.Base in
  let p = find_wrapper (partitioned ~spec ~q:4 ~dims:64 ~classes:4 ()) in
  Alcotest.(check int) "q" 4 (attr_i p "q");
  Alcotest.(check int) "n" 4 (attr_i p "n");
  Alcotest.(check int) "d" 64 (attr_i p "d");
  Alcotest.(check int) "tile rows" 4 (attr_i p "rows");
  Alcotest.(check int) "col chunks" 4 (attr_i p "col_chunks");
  Alcotest.(check int) "row chunks" 1 (attr_i p "row_chunks");
  Alcotest.(check int) "no batching" 1 (attr_i p "batches")

let test_row_chunking () =
  (* stored rows (32) exceed the subarray rows (16): two row chunks. *)
  let spec = Archspec.Spec.square 16 Archspec.Spec.Base in
  let p = find_wrapper (partitioned ~spec ~q:2 ~dims:32 ~classes:32 ()) in
  Alcotest.(check int) "row chunks" 2 (attr_i p "row_chunks");
  Alcotest.(check int) "tile rows" 16 (attr_i p "rows")

let test_density_batches () =
  let spec = Archspec.Spec.square 32 Archspec.Spec.Density in
  let p = find_wrapper (partitioned ~spec ~q:2 ~dims:128 ~classes:10 ()) in
  Alcotest.(check int) "three batches of 10 rows" 3 (attr_i p "batches")

let test_batches_for_table1 () =
  (* The cam-density row of Table I derives from these batch counts. *)
  List.iter
    (fun (side, expect) ->
      let spec = Archspec.Spec.square side Archspec.Spec.Density in
      Alcotest.(check int)
        (Printf.sprintf "batches at %dx%d" side side)
        expect
        (Passes.Cim_partition.batches_for spec ~stored_rows:10))
    [ (16, 1); (32, 3); (64, 6); (128, 12); (256, 25) ];
  (* base never batches *)
  let spec = Archspec.Spec.square 256 Archspec.Spec.Base in
  Alcotest.(check int) "base batches" 1
    (Passes.Cim_partition.batches_for spec ~stored_rows:10);
  (* no batching when rows fill the subarray *)
  let spec = Archspec.Spec.square 32 Archspec.Spec.Density in
  Alcotest.(check int) "full rows" 1
    (Passes.Cim_partition.batches_for spec ~stored_rows:32)

let test_divisibility_errors () =
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  (* dims 48 not divisible by 32 *)
  (match partitioned ~spec ~q:2 ~dims:48 ~classes:4 () with
  | _ -> Alcotest.fail "expected a pass error"
  | exception Pass.Pass_error (_, msg) ->
      Alcotest.(check bool) "mentions divisibility" true
        (String.length msg > 0));
  (* stored rows 40 > 32 and not divisible *)
  match partitioned ~spec ~q:2 ~dims:64 ~classes:40 () with
  | _ -> Alcotest.fail "expected a pass error"
  | exception Pass.Pass_error _ -> ()

let test_expanded_region_structure () =
  let spec = Archspec.Spec.square 16 Archspec.Spec.Base in
  let p = find_wrapper (expanded ~spec ~q:4 ~dims:64 ~classes:4 ()) in
  let names = List.map (fun (o : Op.t) -> o.op_name) (Op.body_ops p) in
  let count n = List.length (List.filter (String.equal n) names) in
  Alcotest.(check int) "4 partials (4 col chunks)" 4
    (count "cim.similarity_partial");
  Alcotest.(check int) "8 slices" 8 (count "cim.slice");
  (* 3 horizontal merges within the row chunk + 1 vertical *)
  Alcotest.(check int) "4 merges" 4 (count "cim.merge_partial");
  Alcotest.(check int) "one select" 1 (count "cim.select_best");
  Alcotest.(check int) "one zeros" 1 (count "cim.zeros")

let test_compact_region_above_limit () =
  (* The pass always emits the one-op form; expansion leaves a tiling
     above 4096 tiles (here 52 x 80) in it. *)
  let body_names p = List.map (fun (o : Op.t) -> o.op_name) (Op.body_ops p) in
  let spec = Archspec.Spec.square 16 Archspec.Spec.Base in
  Alcotest.(check (list string)) "compact form"
    [ "cim.similarity"; "cim.yield" ]
    (body_names (find_wrapper (partitioned ~spec ~q:4 ~dims:64 ~classes:4 ())));
  Alcotest.(check (list string)) "compact above the limit"
    [ "cim.similarity"; "cim.yield" ]
    (body_names
       (find_wrapper (expanded ~spec ~q:1 ~dims:(16 * 80) ~classes:(16 * 52) ())))

(* Every registry kernel over the 12 DSE specs: the cam level compiled
   from the compact region prints exactly as the one lowered from the
   expanded region (compile_traced expands inside cim-partition), and
   the printed cim level is the traced expansion. Printed names are
   local to each function, so the comparison covers them too. *)
let test_compact_lowers_like_expanded () =
  let module Reg = Workloads.Registry in
  let specs =
    List.concat_map
      (fun side ->
        List.map (Archspec.Spec.square side)
          Archspec.Spec.[ Base; Power; Density; Power_density ])
      [ 16; 32; 64 ]
  in
  List.iter
    (fun (e : Reg.entry) ->
      match e.exec with
      | Reg.Kernel mk ->
          List.iter
            (fun spec0 ->
              let spec = e.fix_spec e.default_shape spec0 in
              let src = (mk e.default_shape spec).Reg.ki_source in
              let label what =
                Printf.sprintf "%s %s: %s" e.name (C4cam.Dse.config_name spec)
                  what
              in
              let c = C4cam.Driver.compile ~spec src in
              let cim = List.assoc "cim" (C4cam.Driver.stage_texts c) in
              let t, trace = C4cam.Driver.compile_traced ~spec src in
              let wrapper = find_wrapper t.cim_ir in
              Alcotest.(check bool) (label "traced region expanded") true
                (List.exists
                   (fun (o : Op.t) -> String.equal o.op_name "cim.slice")
                   (Op.body_ops wrapper));
              Alcotest.(check string) (label "cam level")
                (Printer.module_to_string t.cam_ir)
                (Printer.module_to_string c.cam_ir);
              Alcotest.(check string) (label "cim level")
                (List.assoc "cim-partition" trace)
                cim)
            specs
      | Reg.Direct _ | Reg.Range _ -> ())
    Reg.all

let run_software m ~queries ~stored =
  let fn = Func_ir.find_func_exn m "forward" in
  let args =
    List.map2
      (fun (v : Value.t) rows ->
        Interp.Rtval.tensor (Types.shape v.ty)
          (Array.concat (Array.to_list rows)))
      fn.fn_args [ queries; stored ]
  in
  (Interp.Machine.run m "forward" args).results

let test_partitioned_matches_torch () =
  (* Both partitioned forms compute the same top-1 indices as the torch
     reference, for several subarray geometries. *)
  let synth =
    Workloads.Hdc.synthetic ~seed:3 ~dims:64 ~n_classes:6 ~n_queries:5
      ~bits:1 ()
  in
  let torch = Tutil.hdc_torch ~q:5 ~dims:64 ~classes:6 () in
  let torch_indices =
    match run_software torch ~queries:synth.queries ~stored:synth.stored with
    | [ _; i ] -> Interp.Rtval.to_int_rows i
    | _ -> Alcotest.fail "bad arity"
  in
  List.iter
    (fun side ->
      let spec = Archspec.Spec.square side Archspec.Spec.Base in
      List.iter
        (fun (form, m) ->
          match run_software m ~queries:synth.queries ~stored:synth.stored with
          | [ _; i ] ->
              Alcotest.(check Tutil.int_rows_testable)
                (Printf.sprintf "%s indices at %dx%d" form side side)
                torch_indices (Interp.Rtval.to_int_rows i)
          | _ -> Alcotest.fail "bad arity")
        [
          ("compact", partitioned ~spec ~q:5 ~dims:64 ~classes:6 ());
          ("expanded", expanded ~spec ~q:5 ~dims:64 ~classes:6 ());
        ])
    [ 16; 32; 64 ]

let () =
  Alcotest.run "partition"
    [
      ( "tiling",
        [
          Alcotest.test_case "attrs" `Quick test_tiling_attrs;
          Alcotest.test_case "row chunking" `Quick test_row_chunking;
          Alcotest.test_case "density batches" `Quick test_density_batches;
          Alcotest.test_case "table1 batch counts" `Quick
            test_batches_for_table1;
          Alcotest.test_case "divisibility errors" `Quick
            test_divisibility_errors;
        ] );
      ( "region",
        [
          Alcotest.test_case "expanded structure" `Quick
            test_expanded_region_structure;
          Alcotest.test_case "compact above limit" `Quick
            test_compact_region_above_limit;
          Alcotest.test_case "compact lowers like expanded" `Quick
            test_compact_lowers_like_expanded;
        ] );
      ( "software equivalence",
        [
          Alcotest.test_case "matches torch" `Quick
            test_partitioned_matches_torch;
        ] );
    ]
