(* torch-to-cim conversion, fusion (Algorithm 1 application) and
   canonicalization. *)

open Ir

let run_pass p m = Pass.run ~verify:true p m

let top_names m =
  (Func_ir.find_func_exn m "forward").fn_body.body
  |> List.map (fun (o : Op.t) -> o.op_name)

let test_torch_to_cim_wraps_each_op () =
  let m = run_pass Passes.Torch_to_cim.pass (Tutil.hdc_torch ()) in
  Alcotest.(check (list string)) "triples per op"
    [
      "cim.acquire"; "cim.execute"; "cim.release";
      "cim.acquire"; "cim.execute"; "cim.release";
      "cim.acquire"; "cim.execute"; "cim.release";
      "func.return";
    ]
    (top_names m)

let test_torch_to_cim_region_contents () =
  let m = run_pass Passes.Torch_to_cim.pass (Tutil.hdc_torch ()) in
  let fn = Func_ir.find_func_exn m "forward" in
  let executes =
    Walk.collect (fun o -> String.equal o.Op.op_name "cim.execute") fn
  in
  let inner_names =
    List.concat_map
      (fun e -> List.map (fun (o : Op.t) -> o.op_name) (Op.body_ops e))
      executes
  in
  Alcotest.(check (list string)) "cim twins inside"
    [
      "cim.transpose"; "cim.yield"; "cim.matmul"; "cim.yield"; "cim.topk";
      "cim.yield";
    ]
    inner_names

let fused_hdc ?q ?dims ?classes () =
  Tutil.hdc_torch ?q ?dims ?classes ()
  |> run_pass Passes.Torch_to_cim.pass
  |> run_pass Passes.Cim_fusion.pass

let test_fuse_blocks_merges_triples () =
  let m =
    Tutil.hdc_torch () |> run_pass Passes.Torch_to_cim.pass
    |> run_pass Passes.Cim_fusion.fuse_blocks
  in
  Alcotest.(check (list string)) "one merged triple"
    [ "cim.acquire"; "cim.execute"; "cim.release"; "func.return" ]
    (top_names m)

let test_fusion_produces_similarity () =
  let m = fused_hdc () in
  let fn = Func_ir.find_func_exn m "forward" in
  let sims =
    Walk.collect (fun o -> String.equal o.Op.op_name "cim.similarity") fn
  in
  Alcotest.(check int) "one similarity" 1 (List.length sims);
  let sim = List.hd sims in
  Alcotest.(check string) "dot metric" "dot"
    (Attr.as_sym (Op.attr_exn sim "metric"));
  Alcotest.(check int) "k from topk" 1 (Attr.as_int (Op.attr_exn sim "k"));
  (* operands: query is the input (q x dims), stored the weights *)
  Alcotest.(check string) "query shape" "tensor<4x64xf32>"
    (Types.to_string (Op.operand sim 0).ty);
  Alcotest.(check string) "stored shape" "tensor<4x64xf32>"
    (Types.to_string (Op.operand sim 1).ty)

let test_fusion_euclidean () =
  let src = Workloads.Kernels.knn_euclidean ~q:3 ~dims:32 ~n:8 ~k:2 in
  let m =
    Frontend.Emit.compile_string src
    |> run_pass Passes.Torch_to_cim.pass
    |> run_pass Passes.Cim_fusion.pass
  in
  let fn = Func_ir.find_func_exn m "forward" in
  let sims = Walk.collect (fun o -> String.equal o.Op.op_name "cim.similarity") fn in
  Alcotest.(check int) "one similarity" 1 (List.length sims);
  let sim = List.hd sims in
  Alcotest.(check string) "euclidean metric" "euclidean"
    (Attr.as_sym (Op.attr_exn sim "metric"));
  (* the batched query was squeezed through a reshape *)
  Alcotest.(check string) "query squeezed" "tensor<3x32xf32>"
    (Types.to_string (Op.operand sim 0).ty)

let test_fusion_cosine () =
  let src = Workloads.Kernels.cosine_scores ~q:3 ~dims:32 ~n:8 in
  let m =
    Frontend.Emit.compile_string src
    |> run_pass Passes.Torch_to_cim.pass
    |> run_pass Passes.Cim_fusion.pass
  in
  let fn = Func_ir.find_func_exn m "forward" in
  let sims =
    Walk.collect
      (fun o -> String.equal o.Op.op_name "cim.similarity_scores")
      fn
  in
  Alcotest.(check int) "one similarity_scores" 1 (List.length sims);
  Alcotest.(check string) "cosine metric" "cosine"
    (Attr.as_sym (Op.attr_exn (List.hd sims) "metric"))

let test_fusion_preserves_functionality () =
  (* Execute the fused cim module and the original torch module on the
     same inputs; indices must agree. *)
  let torch = Tutil.hdc_torch ~q:5 ~dims:64 ~classes:6 () in
  let fused = Parser.parse_module (Printer.module_to_string torch)
              |> run_pass Passes.Torch_to_cim.pass
              |> run_pass Passes.Cim_fusion.pass in
  let synth = Workloads.Hdc.synthetic ~dims:64 ~n_classes:6 ~n_queries:5 ~bits:1 () in
  let args m =
    let fn = Func_ir.find_func_exn m "forward" in
    List.map2
      (fun (v : Value.t) rows ->
        Interp.Rtval.tensor (Types.shape v.ty)
          (Array.concat (Array.to_list rows)))
      fn.fn_args
      [ synth.queries; synth.stored ]
  in
  let run m = (Interp.Machine.run m "forward" (args m)).results in
  match (run torch, run fused) with
  | [ _; ti ], [ _; fi ] ->
      Alcotest.(check Tutil.int_rows_testable) "indices agree"
        (Interp.Rtval.to_int_rows ti) (Interp.Rtval.to_int_rows fi)
  | _ -> Alcotest.fail "unexpected result arity"

let test_non_matching_block_untouched () =
  (* A block matching none of the similarity patterns must not be
     rewritten. (Bare transpose+matmul no longer qualifies — that is
     the scores form, see [test_fusion_dot_scores].) *)
  let src =
    "def forward(x: Tensor[4, 8], w: Tensor[8, 4]):\n\
    \    s = torch.sub(x, x)\n\
    \    m = torch.matmul(s, w)\n\
    \    return m\n"
  in
  let m =
    Frontend.Emit.compile_string src
    |> run_pass Passes.Torch_to_cim.pass
    |> run_pass Passes.Cim_fusion.pass
  in
  let fn = Func_ir.find_func_exn m "forward" in
  Alcotest.(check int) "no similarity" 0
    (List.length
       (Walk.collect
          (fun o ->
            String.equal o.Op.op_name "cim.similarity"
            || String.equal o.Op.op_name "cim.similarity_scores")
          fn));
  Alcotest.(check int) "ops kept" 2
    (List.length
       (Walk.collect
          (fun o ->
            String.equal o.Op.op_name "cim.sub"
            || String.equal o.Op.op_name "cim.matmul")
          fn))

let test_fusion_dot_scores () =
  (* The topk-free dot kernel fuses to the scores form: the full score
     matrix as the result, selection left to the host (the sharded
     store depends on this). *)
  let src = Workloads.Kernels.hdc_dot_scores ~q:3 ~dims:32 ~classes:8 in
  let m =
    Frontend.Emit.compile_string src
    |> run_pass Passes.Torch_to_cim.pass
    |> run_pass Passes.Cim_fusion.pass
  in
  let fn = Func_ir.find_func_exn m "forward" in
  let sims =
    Walk.collect
      (fun o -> String.equal o.Op.op_name "cim.similarity_scores")
      fn
  in
  Alcotest.(check int) "one similarity_scores" 1 (List.length sims);
  Alcotest.(check string) "dot metric" "dot"
    (Attr.as_sym (Op.attr_exn (List.hd sims) "metric"))

(* ---- canonicalize ------------------------------------------------------ *)

let test_dce_removes_dead_pure_ops () =
  let a = Value.fresh Types.Index in
  let b = Value.fresh Types.Index in
  let m =
    Func_ir.modul
      [
        Func_ir.func "forward" ~args:[] ~ret:[]
          [
            Op.create ~results:[ a ] ~attrs:[ ("value", Attr.Int 1) ]
              "arith.constant";
            Op.create ~results:[ b ] ~attrs:[ ("value", Attr.Int 2) ]
              "arith.constant";
            Op.create ~operands:[ a ] "func.return";
          ];
      ]
  in
  let m = run_pass Passes.Canonicalize.dce m in
  Alcotest.(check (list string)) "dead constant removed"
    [ "arith.constant"; "func.return" ]
    (top_names m)

let test_dce_keeps_side_effects () =
  let m =
    Func_ir.modul
      [
        Func_ir.func "forward" ~args:[] ~ret:[]
          [ Op.create "cam.alloc_bank_dummy"; Op.create "func.return" ];
      ]
  in
  let m = run_pass Passes.Canonicalize.dce m in
  Alcotest.(check int) "cam op kept" 2
    (List.length (Func_ir.find_func_exn m "forward").fn_body.body)

let test_dce_cascades () =
  (* b depends on a; both dead -> both removed in one pass run. *)
  let a = Value.fresh Types.Index in
  let b = Value.fresh Types.Index in
  let m =
    Func_ir.modul
      [
        Func_ir.func "forward" ~args:[] ~ret:[]
          [
            Op.create ~results:[ a ] ~attrs:[ ("value", Attr.Int 1) ]
              "arith.constant";
            Op.create ~operands:[ a; a ] ~results:[ b ] "arith.addi";
            Op.create "func.return";
          ];
      ]
  in
  let m = run_pass Passes.Canonicalize.dce m in
  Alcotest.(check (list string)) "cascaded removal" [ "func.return" ]
    (top_names m)

let test_constant_folding () =
  let a = Value.fresh Types.Index in
  let b = Value.fresh Types.Index in
  let c = Value.fresh Types.Index in
  let m =
    Func_ir.modul
      [
        Func_ir.func "forward" ~args:[] ~ret:[]
          [
            Op.create ~results:[ a ] ~attrs:[ ("value", Attr.Int 6) ]
              "arith.constant";
            Op.create ~results:[ b ] ~attrs:[ ("value", Attr.Int 7) ]
              "arith.constant";
            Op.create ~operands:[ a; b ] ~results:[ c ] "arith.muli";
            Op.create ~operands:[ c ] "func.return";
          ];
      ]
  in
  let m = run_pass Passes.Canonicalize.fold_constants m in
  let fn = Func_ir.find_func_exn m "forward" in
  let folded = List.nth fn.fn_body.body 2 in
  Alcotest.(check string) "muli folded" "arith.constant" folded.Op.op_name;
  Alcotest.(check int) "folded value" 42
    (Attr.as_int (Op.attr_exn folded "value"))

let test_fold_no_division_by_zero () =
  let a = Value.fresh Types.Index in
  let b = Value.fresh Types.Index in
  let c = Value.fresh Types.Index in
  let m =
    Func_ir.modul
      [
        Func_ir.func "forward" ~args:[] ~ret:[]
          [
            Op.create ~results:[ a ] ~attrs:[ ("value", Attr.Int 6) ]
              "arith.constant";
            Op.create ~results:[ b ] ~attrs:[ ("value", Attr.Int 0) ]
              "arith.constant";
            Op.create ~operands:[ a; b ] ~results:[ c ] "arith.divi";
            Op.create ~operands:[ c ] "func.return";
          ];
      ]
  in
  let m = run_pass Passes.Canonicalize.fold_constants m in
  let fn = Func_ir.find_func_exn m "forward" in
  Alcotest.(check string) "divi by zero not folded" "arith.divi"
    (List.nth fn.fn_body.body 2).Op.op_name

let test_cse_dedups_pure_ops () =
  let a = Value.fresh Types.Index in
  let b = Value.fresh Types.Index in
  let c = Value.fresh Types.Index in
  let mk v value =
    Op.create ~results:[ v ] ~attrs:[ ("value", Attr.Int value) ]
      "arith.constant"
  in
  let m =
    Func_ir.modul
      [
        Func_ir.func "forward" ~args:[] ~ret:[]
          [
            mk a 5;
            mk b 5;
            Op.create ~operands:[ a; b ] ~results:[ c ] "arith.addi";
            Op.create ~operands:[ c ] "func.return";
          ];
      ]
  in
  let m = run_pass Passes.Canonicalize.cse m in
  let fn = Func_ir.find_func_exn m "forward" in
  Alcotest.(check int) "duplicate constant removed" 3
    (List.length fn.fn_body.body);
  (* the addi now uses the surviving constant twice *)
  let addi = List.nth fn.fn_body.body 1 in
  Alcotest.(check bool) "operands rewritten" true
    (Value.equal (Op.operand addi 0) (Op.operand addi 1))

let test_cse_respects_attrs_and_effects () =
  let a = Value.fresh Types.Index in
  let b = Value.fresh Types.Index in
  let m =
    Func_ir.modul
      [
        Func_ir.func "forward" ~args:[] ~ret:[]
          [
            Op.create ~results:[ a ] ~attrs:[ ("value", Attr.Int 1) ]
              "arith.constant";
            Op.create ~results:[ b ] ~attrs:[ ("value", Attr.Int 2) ]
              "arith.constant";
            Op.create ~operands:[ a; b ] "func.return";
          ];
      ]
  in
  let m = run_pass Passes.Canonicalize.cse m in
  Alcotest.(check int) "different attrs kept" 3
    (List.length (Func_ir.find_func_exn m "forward").fn_body.body);
  (* side-effecting ops are never deduplicated *)
  let m2 =
    Func_ir.modul
      [
        Func_ir.func "forward" ~args:[] ~ret:[]
          [
            Op.create ~results:[ Value.fresh (Types.Handle "cam.bank_id") ]
              ~attrs:[ ("rows", Attr.Int 4); ("cols", Attr.Int 4) ]
              "cam.alloc_bank";
            Op.create ~results:[ Value.fresh (Types.Handle "cam.bank_id") ]
              ~attrs:[ ("rows", Attr.Int 4); ("cols", Attr.Int 4) ]
              "cam.alloc_bank";
            Op.create "func.return";
          ];
      ]
  in
  let m2 = run_pass Passes.Canonicalize.cse m2 in
  Alcotest.(check int) "allocations kept" 3
    (List.length (Func_ir.find_func_exn m2 "forward").fn_body.body)

let test_host_fallback_unwraps_non_similarity () =
  (* A kernel with no CAM-amenable pattern: after fusion it stays a
     plain execute block; host fallback inlines it back. *)
  let src =
    "def forward(x: Tensor[4, 8], w: Tensor[8, 4]):\n\
    \    s = torch.sub(x, x)\n\
    \    m = torch.matmul(s, w)\n\
    \    return m\n"
  in
  let m =
    Frontend.Emit.compile_string src
    |> run_pass Passes.Torch_to_cim.pass
    |> run_pass Passes.Cim_fusion.pass
    |> run_pass Passes.Host_fallback.pass
  in
  Alcotest.(check (list string)) "raised back to torch"
    [ "torch.sub"; "torch.matmul"; "func.return" ]
    (top_names m);
  (* and the host can execute it *)
  let fn = Func_ir.find_func_exn m "forward" in
  let args =
    List.map
      (fun (v : Value.t) ->
        Interp.Rtval.tensor (Types.shape v.ty)
          (Array.make (Types.num_elements v.ty) 1.))
      fn.fn_args
  in
  let r = Interp.Machine.run m "forward" args in
  Alcotest.(check int) "runs on host" 1 (List.length r.results)

let test_host_fallback_keeps_similarity () =
  let m =
    Tutil.hdc_torch () |> run_pass Passes.Torch_to_cim.pass
    |> run_pass Passes.Cim_fusion.pass
    |> run_pass Passes.Host_fallback.pass
  in
  Alcotest.(check (list string)) "similarity triple survives"
    [ "cim.acquire"; "cim.execute"; "cim.release"; "func.return" ]
    (top_names m)

let test_pipeline_lookup () =
  let spec = Tutil.spec32 in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves") true
        (Passes.Pipelines.by_name spec name <> None))
    Passes.Pipelines.names;
  Alcotest.(check bool) "unknown pass" true
    (Passes.Pipelines.by_name spec "frobnicate" = None)

let () =
  Alcotest.run "passes_cim"
    [
      ( "torch-to-cim",
        [
          Alcotest.test_case "wraps each op" `Quick
            test_torch_to_cim_wraps_each_op;
          Alcotest.test_case "region contents" `Quick
            test_torch_to_cim_region_contents;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "merge triples" `Quick
            test_fuse_blocks_merges_triples;
          Alcotest.test_case "similarity (dot)" `Quick
            test_fusion_produces_similarity;
          Alcotest.test_case "similarity (euclidean)" `Quick
            test_fusion_euclidean;
          Alcotest.test_case "similarity_scores (cosine)" `Quick
            test_fusion_cosine;
          Alcotest.test_case "similarity_scores (dot)" `Quick
            test_fusion_dot_scores;
          Alcotest.test_case "functionality preserved" `Quick
            test_fusion_preserves_functionality;
          Alcotest.test_case "non-matching untouched" `Quick
            test_non_matching_block_untouched;
        ] );
      ( "canonicalize",
        [
          Alcotest.test_case "dce removes dead" `Quick
            test_dce_removes_dead_pure_ops;
          Alcotest.test_case "dce keeps effects" `Quick
            test_dce_keeps_side_effects;
          Alcotest.test_case "dce cascades" `Quick test_dce_cascades;
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "no fold div by zero" `Quick
            test_fold_no_division_by_zero;
          Alcotest.test_case "cse dedups" `Quick test_cse_dedups_pure_ops;
          Alcotest.test_case "cse limits" `Quick
            test_cse_respects_attrs_and_effects;
          Alcotest.test_case "pipeline lookup" `Quick test_pipeline_lookup;
        ] );
      ( "host fallback",
        [
          Alcotest.test_case "unwraps non-similarity" `Quick
            test_host_fallback_unwraps_non_similarity;
          Alcotest.test_case "keeps similarity" `Quick
            test_host_fallback_keeps_similarity;
        ] );
    ]
