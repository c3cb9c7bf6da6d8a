(* Heterogeneous multi-kernel compilation and bank-level task
   parallelism, plus a semantics-preservation property for the
   canonicalization passes. *)

let two_kernel_source =
  (* a small HDC classifier and a small KNN ranker in one module *)
  Workloads.Kernels.hdc_dot ~q:6 ~dims:128 ~classes:5 ~k:1
  ^ Workloads.Kernels.knn_euclidean ~q:3 ~dims:64 ~n:32 ~k:4
  |> fun s ->
  (* give the kernels distinct names *)
  let first = ref true in
  String.split_on_char '\n' s
  |> List.map (fun l ->
         if String.length l >= 11 && String.sub l 0 11 = "def forward" then
           if !first then (
             first := false;
             "def classify" ^ String.sub l 11 (String.length l - 11))
           else "def rank" ^ String.sub l 11 (String.length l - 11)
         else l)
  |> String.concat "\n"

let specs =
  [
    ("classify", Archspec.Spec.square 32 Archspec.Spec.Base);
    ( "rank",
      { (Archspec.Spec.square 16 Archspec.Spec.Base) with
        cam_kind = Archspec.Spec.Mcam } );
  ]

let compiled = lazy (C4cam.Hetero.compile_module ~specs two_kernel_source)

let test_compile_module () =
  match Lazy.force compiled with
  | [ a; b ] ->
      Alcotest.(check string) "first kernel" "classify" a.fn_name;
      Alcotest.(check string) "second kernel" "rank" b.fn_name;
      Alcotest.(check int) "classify dims" 128 a.info.d;
      Alcotest.(check int) "rank stored" 32 b.info.n;
      Alcotest.(check bool) "per-kernel specs honoured" true
        (a.spec.rows = 32 && b.spec.rows = 16
        && b.spec.cam_kind = Archspec.Spec.Mcam)
  | l -> Alcotest.failf "expected two kernels, got %d" (List.length l)

let test_missing_spec_rejected () =
  Alcotest.(check bool) "missing spec" true
    (match
       C4cam.Hetero.compile_module
         ~specs:[ ("classify", Archspec.Spec.square 32 Archspec.Spec.Base) ]
         two_kernel_source
     with
    | _ -> false
    | exception C4cam.Driver.Compile_error _ -> true)

let test_run_concurrent () =
  let a, b =
    match Lazy.force compiled with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected two kernels"
  in
  let hdc =
    Workloads.Hdc.synthetic ~seed:71 ~dims:128 ~n_classes:5 ~n_queries:6
      ~bits:1 ()
  in
  let ds =
    Workloads.Dataset.pneumonia_like ~seed:72 ~n_features:64
      ~samples_per_class:16 ()
  in
  let tasks =
    [
      { C4cam.Hetero.t_compiled = a; t_queries = hdc.queries;
        t_stored = hdc.stored };
      { C4cam.Hetero.t_compiled = b;
        t_queries = Array.sub ds.features 0 3;
        t_stored = ds.features };
    ]
  in
  let o = C4cam.Hetero.run_concurrent tasks in
  Alcotest.(check int) "two results" 2 (List.length o.per_task);
  let l1 = (List.nth o.per_task 0).latency in
  let l2 = (List.nth o.per_task 1).latency in
  Tutil.check_float "latency is the max" (Float.max l1 l2) o.latency;
  Tutil.check_float "sequential is the sum" (l1 +. l2)
    o.sequential_latency;
  Tutil.check_float "energy adds"
    ((List.nth o.per_task 0).energy +. (List.nth o.per_task 1).energy)
    o.energy;
  Alcotest.(check bool) "parallelism helps" true
    (o.latency < o.sequential_latency);
  (* each kernel still produces its own correct results *)
  let hdc_result = List.nth o.per_task 0 in
  let correct = ref 0 in
  Array.iteri
    (fun i (row : int array) ->
      if row.(0) = hdc.query_labels.(i) then incr correct)
    hdc_result.indices;
  Alcotest.(check int) "hdc task classifies" 6 !correct

(* ---- canonicalization preserves semantics (property) ------------------- *)

(* Random straight-line arith program; run it through the interpreter
   before and after fold+cse+dce and compare the returned index. *)
let gen_arith_program =
  QCheck.Gen.(
    let* n_ops = int_range 1 12 in
    let* ops =
      list_repeat n_ops
        (triple (int_range 0 4) (int_range 0 1000) (int_range 0 1000))
    in
    return ops)

let build_arith_program ops =
  let b = Ir.Builder.create () in
  let values = ref [] in
  let const v =
    let r = Dialects.Arith.const_index b v in
    values := r :: !values;
    r
  in
  ignore (const 7);
  List.iter
    (fun (kind, a, bsel) ->
      let pick sel =
        List.nth !values (sel mod List.length !values)
      in
      let x = pick a and y = pick bsel in
      let r =
        match kind with
        | 0 -> Dialects.Arith.addi b x y
        | 1 -> Dialects.Arith.subi b x y
        | 2 -> Dialects.Arith.muli b x y
        | 3 -> const (a mod 100)
        | _ -> Dialects.Arith.addi b (const (bsel mod 50)) x
      in
      values := r :: !values)
    ops;
  Ir.Builder.op0 b ~operands:[ List.hd !values ] "func.return";
  Ir.Func_ir.modul
    [ Ir.Func_ir.func "f" ~args:[] ~ret:[ Ir.Types.Index ]
        (Ir.Builder.finish b) ]

let run_index m =
  match (Interp.Machine.run m "f" []).results with
  | [ Interp.Rtval.Index i ] -> i
  | _ -> Alcotest.fail "expected an index result"

let prop_canonicalize_preserves =
  QCheck.Test.make ~count:200
    ~name:"fold+cse+dce preserve program results"
    (QCheck.make gen_arith_program)
    (fun ops ->
      let m = build_arith_program ops in
      let before = run_index m in
      let m' =
        Ir.Pass.run ~verify:true Passes.Canonicalize.pass
          (C4cam.Driver.clone_module m)
      in
      run_index m' = before)

(* One [Hetero.models] value price-runs each segment once: asking
   again for a segment returns the very cost record its first price run
   built. *)
let test_segments_priced_once () =
  let module P = Passes.Placement in
  let data =
    Workloads.Recsys.generate ~users:8 ~features:64 ~items:64 ~classes:8 ()
  in
  let m =
    C4cam.Hetero.models
      (C4cam.Hetero.recsys_kernel
         ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base)
         ~data ~k:1)
  in
  match C4cam.Hetero.recsys_stages data ~k:1 with
  | [ gemv; score; select ] ->
      List.iter
        (fun (what, device, segment) ->
          let first = m.P.device_cost device segment in
          Alcotest.(check bool)
            what true
            (first == m.P.device_cost device segment))
        [
          ("cam score+select", P.Cam, [ score; select ]);
          ("xbar gemv", P.Xbar, [ gemv ]);
        ]
  | _ -> Alcotest.fail "recsys is gemv -> score -> select"

let () =
  Alcotest.run "hetero"
    [
      ( "heterogeneous",
        [
          Alcotest.test_case "compile module" `Quick test_compile_module;
          Alcotest.test_case "missing spec" `Quick test_missing_spec_rejected;
          Alcotest.test_case "run concurrent" `Quick test_run_concurrent;
        ] );
      ( "placement models",
        [
          Alcotest.test_case "segments priced once" `Quick
            test_segments_priced_once;
        ] );
      ( "canonicalize semantics",
        [ QCheck_alcotest.to_alcotest prop_canonicalize_preserves ] );
    ]
