(* The host (loop-dialect) lowering of Figure 3: similarity executed as
   explicit scf loops over scalar float arithmetic. *)

open Ir

let lower ?(src = Tutil.hdc_source ~q:5 ~dims:48 ~classes:6 ()) () =
  Frontend.Emit.compile_string src
  |> Pass.run Passes.Torch_to_cim.pass
  |> Pass.run Passes.Cim_fusion.pass
  |> Pass.run Passes.Cim_to_loops.pass

let run_loops m ~queries ~stored =
  let fn = Func_ir.find_func_exn m "forward" in
  let args =
    List.map
      (fun (v : Value.t) ->
        let shape = Types.shape v.ty in
        let rows = if List.hd shape = Array.length queries then queries else stored in
        Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows rows))
      fn.fn_args
  in
  (Interp.Machine.run m "forward" args).results

let test_structure () =
  let m = lower () in
  let fn = Func_ir.find_func_exn m "forward" in
  let count name =
    List.length (Walk.collect (fun o -> String.equal o.Op.op_name name) fn)
  in
  Alcotest.(check int) "triple loop nest" 3 (count "scf.for");
  Alcotest.(check bool) "scalar arithmetic inside" true
    (count "arith.mulf" >= 1 && count "arith.addf" >= 1);
  Alcotest.(check bool) "loads and stores" true
    (count "memref.load" >= 3 && count "memref.store" >= 2);
  Alcotest.(check int) "no cam ops" 0 (count "cam.search");
  Alcotest.(check int) "host selection" 1 (count "cim.select_best")

let test_verifies () =
  match Verifier.verify_module ~strict:true (lower ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Verifier.error_to_string e)

let test_matches_torch_dot () =
  let synth =
    Workloads.Hdc.synthetic ~seed:8 ~dims:48 ~n_classes:6 ~n_queries:5
      ~bits:1 ()
  in
  let m = lower () in
  (match run_loops m ~queries:synth.queries ~stored:synth.stored with
  | [ _v; i ] ->
      let torch = Tutil.hdc_torch ~q:5 ~dims:48 ~classes:6 () in
      let fn = Func_ir.find_func_exn torch "forward" in
      let args =
        List.map2
          (fun (v : Value.t) rows ->
            Interp.Rtval.tensor (Types.shape v.ty)
              (Array.concat (Array.to_list rows)))
          fn.fn_args
          [ synth.queries; synth.stored ]
      in
      (match (Interp.Machine.run torch "forward" args).results with
      | [ _; ti ] ->
          Alcotest.(check Tutil.int_rows_testable) "host loops = torch"
            (Interp.Rtval.to_int_rows ti)
            (Interp.Rtval.to_int_rows i)
      | _ -> Alcotest.fail "bad torch arity")
  | _ -> Alcotest.fail "bad loops arity")

let test_matches_torch_euclidean () =
  let ds =
    Workloads.Dataset.pneumonia_like ~seed:4 ~n_features:24
      ~samples_per_class:10 ()
  in
  let queries = Array.sub ds.features 0 3 in
  let src = Workloads.Kernels.knn_euclidean ~q:3 ~dims:24 ~n:20 ~k:4 in
  let m = lower ~src () in
  match run_loops m ~queries ~stored:ds.features with
  | [ _v; i ] ->
      Array.iteri
        (fun qi (row : int array) ->
          let sw =
            Workloads.Knn.neighbours ~train:ds ~k:4 queries.(qi)
          in
          Alcotest.(check (array int))
            (Printf.sprintf "query %d" qi)
            (Array.map snd sw) row)
        (Interp.Rtval.to_int_rows i)
  | _ -> Alcotest.fail "bad arity"

let test_scores_form () =
  (* the cosine kernel lowers to loops producing the full matrix *)
  let src = Workloads.Kernels.cosine_scores ~q:3 ~dims:16 ~n:5 in
  let m = lower ~src () in
  let rng = Rng.create 6 in
  let mk r c = Array.init r (fun _ -> Array.init c (fun _ -> Rng.float rng)) in
  let queries = mk 3 16 and stored = mk 5 16 in
  match run_loops m ~queries ~stored with
  | [ scores ] ->
      let rows = Interp.Rtval.to_rows scores in
      Alcotest.(check int) "q rows" 3 (Array.length rows);
      (* dot-partial semantics, as documented for the cosine lowering *)
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j v ->
              Tutil.check_float ~eps:1e-9 "dot entry"
                (Workloads.Distance.dot queries.(i) stored.(j))
                v)
            row)
        rows
  | _ -> Alcotest.fail "bad arity"

let test_non_similarity_untouched () =
  (* sub+matmul matches no similarity pattern, so nothing lowers to
     loops. (Bare transpose+matmul is no longer a non-match: it is the
     scores form of the dot pattern and lowers like any similarity.) *)
  let src =
    "def forward(x: Tensor[4, 8], w: Tensor[8, 4]):\n\
    \    s = torch.sub(x, x)\n\
    \    m = torch.matmul(s, w)\n\
    \    return m\n"
  in
  let m = lower ~src () in
  let fn = Func_ir.find_func_exn m "forward" in
  Alcotest.(check int) "no loops emitted" 0
    (List.length (Walk.collect (fun o -> String.equal o.Op.op_name "scf.for") fn))

let () =
  Alcotest.run "loops"
    [
      ( "lowering",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "verifies" `Quick test_verifies;
          Alcotest.test_case "untouched without pattern" `Quick
            test_non_similarity_untouched;
        ] );
      ( "functional",
        [
          Alcotest.test_case "dot = torch" `Quick test_matches_torch_dot;
          Alcotest.test_case "euclidean = knn" `Quick
            test_matches_torch_euclidean;
          Alcotest.test_case "scores form" `Quick test_scores_form;
        ] );
    ]
