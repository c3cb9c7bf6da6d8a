(* The flat runtime ISA: lowering, execution, and exact equivalence with
   the structured-IR interpreter. *)

let compile ?(opt = Archspec.Spec.Base) ?(side = 16) ?(q = 6) ?(dims = 128)
    ?(classes = 5) () =
  let spec = Archspec.Spec.square side opt in
  C4cam.Driver.compile ~spec
    (Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1)

let data ?(q = 6) ?(dims = 128) ?(classes = 5) () =
  Workloads.Hdc.synthetic ~seed:41 ~dims ~n_classes:classes ~n_queries:q
    ~bits:1 ()

let test_lowering_shape () =
  let c = compile () in
  let p = C4cam.Driver.to_vm c in
  Alcotest.(check bool) "has instructions" true (Array.length p.instrs > 30);
  Alcotest.(check string) "entry name" "forward" p.entry;
  Alcotest.(check int) "two buffer args" 2 (List.length p.arg_regs);
  (* structured loops became frames + branches *)
  let count f = Array.to_list p.instrs |> List.filter f |> List.length in
  let enters =
    count (function Vm.Isa.Frame_enter _ -> true | _ -> false)
  in
  let exits = count (function Vm.Isa.Frame_exit -> true | _ -> false) in
  Alcotest.(check int) "balanced frames" enters exits;
  Alcotest.(check int) "five loops (4 levels + batch)" 5 enters;
  Alcotest.(check bool) "has branches" true
    (count (function Vm.Isa.Branch _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "ends in ret" true
    (Array.exists (function Vm.Isa.Ret _ -> true | _ -> false) p.instrs)

let test_listing () =
  let c = compile () in
  let text = Vm.Isa.to_string (C4cam.Driver.to_vm c) in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("listing mentions " ^ needle) true
        (contains text needle))
    [ "cam.search"; "cam.alloc_bank"; "frame.enter par"; "iter.begin";
      "ret"; "subview" ]

let test_vm_equals_interpreter () =
  List.iter
    (fun opt ->
      let c = compile ~opt () in
      let d = data () in
      let a = C4cam.Driver.run_cam c ~queries:d.queries ~stored:d.stored in
      let b = C4cam.Driver.run_vm c ~queries:d.queries ~stored:d.stored in
      let name = Archspec.Spec.optimization_to_string opt in
      Alcotest.(check Tutil.int_rows_testable) (name ^ ": same indices")
        a.indices b.indices;
      Alcotest.(check Tutil.rows_testable) (name ^ ": same values")
        a.values b.values;
      Tutil.check_float ~eps:1e-12 (name ^ ": same latency") a.latency
        b.latency;
      Tutil.check_float ~eps:1e-12 (name ^ ": same energy") a.energy
        b.energy)
    Archspec.Spec.[ Base; Power; Density; Power_density ]

let test_vm_knn_equivalence () =
  let spec =
    { (Archspec.Spec.square 16 Archspec.Spec.Base) with
      cam_kind = Archspec.Spec.Mcam }
  in
  let c =
    C4cam.Driver.compile ~spec
      (Workloads.Kernels.knn_euclidean ~q:3 ~dims:32 ~n:32 ~k:4)
  in
  let ds =
    Workloads.Dataset.pneumonia_like ~seed:2 ~n_features:32
      ~samples_per_class:16 ()
  in
  let queries = Array.sub ds.features 0 3 in
  let a = C4cam.Driver.run_cam c ~queries ~stored:ds.features in
  let b = C4cam.Driver.run_vm c ~queries ~stored:ds.features in
  Alcotest.(check Tutil.int_rows_testable) "knn indices" a.indices b.indices;
  Tutil.check_float ~eps:1e-12 "knn latency" a.latency b.latency

(* hand-built programs exercising the executor's corner cases *)

let run_raw ?sim instrs ~n_regs ~args ~arg_regs =
  Vm.Exec.run ?sim
    { Vm.Isa.instrs = Array.of_list instrs; n_regs; arg_regs; entry = "t" }
    args

let test_exec_arith_and_branches () =
  (* computes 10 / 3 and 10 mod 3, branching on equality *)
  let open Vm.Isa in
  let o =
    run_raw ~n_regs:6 ~args:[] ~arg_regs:[]
      [
        Const (0, 10);
        Const (1, 3);
        Binop (Div, 2, 0, 1);
        Binop (Rem, 3, 0, 1);
        Cmp (Eq, 4, 2, 1);  (* 3 = 3 *)
        Branch (4, 0, 1);
        Label 1;
        Const (5, 999);  (* wrong branch *)
        Ret [ 5 ];
        Label 0;
        Ret [ 2; 3 ];
      ]
  in
  match o.results with
  | [ Interp.Rtval.Index 3; Interp.Rtval.Index 1 ] -> ()
  | _ -> Alcotest.fail "wrong arithmetic or branch taken"

let test_exec_frame_semantics () =
  (* Two iterations of 1-instruction cost in a frame: parallel frames
     max-combine; use a real search as the cost source. *)
  let open Vm.Isa in
  let spec = Archspec.Spec.square 16 Archspec.Spec.Base in
  let prog mode =
    let sim = Camsim.Simulator.create spec in
    let q = Interp.Rtval.Buffer (Interp.Rtval.fresh_buffer [ 1; 16 ]) in
    let params =
      { s_kind = `Best; s_metric = `Hamming; s_rows = 4;
        s_batch_extra = false; s_threshold = 0. }
    in
    let o =
      run_raw ~sim ~n_regs:10 ~args:[ q ] ~arg_regs:[ 0 ]
        [
          Cam_alloc_bank (1, 16, 16);
          Cam_alloc_mat (2, 1);
          Cam_alloc_array (3, 2);
          Cam_alloc_subarray (4, 3);
          Const (5, 0);
          Frame_enter mode;
          Iter_begin;
          Cam_search (4, 0, 5, params);
          Iter_end;
          Iter_begin;
          Cam_search (4, 0, 5, params);
          Iter_end;
          Frame_exit;
          Ret [];
        ]
    in
    o.latency
  in
  let seq = prog Seq and par = prog Par in
  Tutil.check_float ~eps:1e-15 "sequential doubles" (2. *. par) seq

let test_exec_errors () =
  let open Vm.Isa in
  let expect what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Exec_error" what
    | exception Vm.Exec.Exec_error _ -> ()
  in
  expect "missing simulator" (fun () ->
      run_raw ~n_regs:2 ~args:[] ~arg_regs:[]
        [ Cam_alloc_bank (0, 4, 4); Ret [] ]);
  expect "undefined label" (fun () ->
      run_raw ~n_regs:1 ~args:[] ~arg_regs:[] [ Jump 42 ]);
  expect "falls off the end" (fun () ->
      run_raw ~n_regs:1 ~args:[] ~arg_regs:[] [ Const (0, 1) ]);
  expect "fuel exhausted" (fun () ->
      Vm.Exec.run ~fuel:100
        { instrs = [| Label 0; Jump 0 |]; n_regs = 0; arg_regs = [];
          entry = "t" }
        []);
  expect "type confusion" (fun () ->
      run_raw ~n_regs:2 ~args:[] ~arg_regs:[]
        [ Alloc_buf (0, [ 2; 2 ]); Binop (Add, 1, 0, 0); Ret [] ]);
  expect "division by zero" (fun () ->
      run_raw ~n_regs:3 ~args:[] ~arg_regs:[]
        [ Const (0, 1); Const (1, 0); Binop (Div, 2, 0, 1); Ret [] ]);
  expect "arity mismatch" (fun () ->
      run_raw ~n_regs:1 ~args:[] ~arg_regs:[ 0 ] [ Ret [] ])

let test_lower_rejects_high_level () =
  let m = Tutil.hdc_torch () in
  match Vm.Lower.modul m "forward" with
  | _ -> Alcotest.fail "torch-level module must not lower"
  | exception Vm.Lower.Lower_error _ -> ()

let () =
  Alcotest.run "vm"
    [
      ( "lowering",
        [
          Alcotest.test_case "program shape" `Quick test_lowering_shape;
          Alcotest.test_case "listing" `Quick test_listing;
          Alcotest.test_case "rejects high-level IR" `Quick
            test_lower_rejects_high_level;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "hdc, all configs" `Quick
            test_vm_equals_interpreter;
          Alcotest.test_case "knn" `Quick test_vm_knn_equivalence;
        ] );
      ( "executor",
        [
          Alcotest.test_case "arith and branches" `Quick
            test_exec_arith_and_branches;
          Alcotest.test_case "frame semantics" `Quick
            test_exec_frame_semantics;
          Alcotest.test_case "errors" `Quick test_exec_errors;
        ] );
    ]
