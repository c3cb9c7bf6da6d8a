(* The multicore execution engine: domain-pool semantics, partial
   top-k selection, split RNG streams, and the jobs-invariance of the
   parallel subarray search, DSE sweep and scf.parallel interpreter
   loops. Determinism is the contract under test: every simulated
   number must be identical for any jobs value. *)

open Ir

(* ---- pool combinators ------------------------------------------------- *)

let test_map_matches_sequential () =
  let input = Array.init 1000 Fun.id in
  let f i = (i * 7) mod 13 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      let got =
        Parallel.run ~jobs (fun pool -> Parallel.map ~pool f input)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "map jobs=%d" jobs)
        expected got)
    [ 1; 2; 4 ];
  let xs = List.init 97 Fun.id in
  let got =
    Parallel.run ~jobs:4 (fun pool -> Parallel.map_list ~pool f xs)
  in
  Alcotest.(check (list int)) "map_list keeps order" (List.map f xs) got

let test_parallel_for_order () =
  let n = 257 in
  let expected = Array.init n (fun i -> i * i) in
  List.iter
    (fun chunk ->
      let out = Array.make n 0 in
      Parallel.run ~jobs:4 (fun pool ->
          Parallel.parallel_for ~pool ?chunk ~lo:0 ~hi:n (fun i ->
              out.(i) <- i * i));
      Alcotest.(check (array int))
        (Printf.sprintf "chunk=%s"
           (match chunk with Some c -> string_of_int c | None -> "auto"))
        expected out)
    [ None; Some 1; Some 7; Some 1000 ]

let test_exception_propagation () =
  (* The first failing iteration wins, independent of the schedule:
     chunks partition the range in order and the lowest failing range
     is re-raised. *)
  Parallel.run ~jobs:4 @@ fun pool ->
  match
    Parallel.parallel_for ~pool ~chunk:2 ~lo:0 ~hi:100 (fun i ->
        if i >= 37 then failwith (string_of_int i))
  with
  | () -> Alcotest.fail "expected a Failure"
  | exception Failure msg ->
      Alcotest.(check string) "first failing iteration" "37" msg

let test_nested_run_rejected () =
  (* from the owner domain *)
  Parallel.run ~jobs:2 (fun _pool ->
      match Parallel.run ~jobs:2 (fun _ -> ()) with
      | () -> Alcotest.fail "expected Nested_run from the owner"
      | exception Parallel.Nested_run -> ());
  (* from inside worker tasks *)
  Parallel.run ~jobs:4 @@ fun pool ->
  let rejected =
    Parallel.map ~pool
      (fun _ ->
        match Parallel.run ~jobs:2 (fun _ -> 0) with
        | _ -> false
        | exception Parallel.Nested_run -> true)
      (Array.init 16 Fun.id)
  in
  Alcotest.(check bool)
    "rejected in every task" true
    (Array.for_all Fun.id rejected)

let test_nested_parallel_for_sequential_fallback () =
  (* a parallel_for inside a running batch degrades to the plain loop
     instead of deadlocking, on workers and on the owner alike *)
  let out = Array.make 64 0 in
  Parallel.run ~jobs:4 (fun pool ->
      Parallel.parallel_for ~pool ~lo:0 ~hi:8 (fun i ->
          Parallel.parallel_for ~lo:0 ~hi:8 (fun j ->
              out.((i * 8) + j) <- (i * 8) + j)));
  Alcotest.(check (array int)) "nested loops still cover the range"
    (Array.init 64 Fun.id) out

let test_default_jobs_override () =
  Parallel.set_default_jobs 3;
  Alcotest.(check int) "override wins" 3 (Parallel.default_jobs ());
  let seen = Parallel.run (fun pool -> Parallel.jobs pool) in
  Alcotest.(check int) "run picks the default up" 3 seen;
  Parallel.set_default_jobs 1;
  Alcotest.(check int) "clamped to >= 1" 1 (Parallel.default_jobs ());
  Alcotest.(check (option unit))
    "no ambient pool outside run" None
    (Option.map ignore (Parallel.current ()));
  Alcotest.(check int) "current_jobs outside run" 1 (Parallel.current_jobs ())

(* ---- split RNG streams ------------------------------------------------ *)

let test_rng_split () =
  let draws g = Array.init 8 (fun _ -> Rng.next_int64 g) in
  let parent = Rng.create 42 in
  let a = draws (Rng.split parent 0) in
  let a' = draws (Rng.split parent 0) in
  let b = draws (Rng.split parent 1) in
  Alcotest.(check bool) "same index, same stream" true (a = a');
  Alcotest.(check bool) "different index, different stream" false (a = b);
  (* splitting never advances the parent *)
  let fresh = Rng.create 42 in
  Alcotest.(check int64) "parent unperturbed" (Rng.next_int64 fresh)
    (Rng.next_int64 parent);
  Tutil.check_raises_invalid "negative index" (fun () ->
      Rng.split (Rng.create 1) (-1))

(* ---- partial top-k selection ------------------------------------------ *)

let topk_check ~n ~k data =
  let cmp i j =
    let c = compare data.(i) data.(j) in
    if c <> 0 then c else compare i j
  in
  let expected =
    let idx = Array.init n Fun.id in
    Array.sort cmp idx;
    Array.sub idx 0 k
  in
  Alcotest.(check (array int))
    (Printf.sprintf "n=%d k=%d" n k)
    expected
    (Camsim.Topk.select ~n ~k ~cmp)

let test_topk_matches_sort () =
  let rng = Rng.create 7 in
  List.iter
    (fun (n, k) ->
      (* small value range forces ties; the index tiebreak must match
         the sort prefix exactly *)
      let data = Array.init n (fun _ -> float_of_int (Rng.int rng 10)) in
      topk_check ~n ~k data)
    [
      (0, 0); (1, 0); (1, 1); (10, 3); (10, 10); (100, 5); (100, 80);
      (64, 1); (7, 2);
    ];
  Tutil.check_raises_invalid "k > n" (fun () ->
      Camsim.Topk.select ~n:3 ~k:4 ~cmp:compare);
  Tutil.check_raises_invalid "negative k" (fun () ->
      Camsim.Topk.select ~n:3 ~k:(-1) ~cmp:compare)

let test_select_best_empty () =
  let sim () = Camsim.Simulator.create Tutil.spec32 in
  let (v, i), _ =
    Camsim.Simulator.select_best (sim ()) ~dist:[||] ~k:2 ~largest:false
  in
  Alcotest.(check int) "zero queries: no value rows" 0 (Array.length v);
  Alcotest.(check int) "zero queries: no index rows" 0 (Array.length i);
  let (v, i), _ =
    Camsim.Simulator.select_best (sim ())
      ~dist:[| [||]; [||] |]
      ~k:3 ~largest:false
  in
  Alcotest.(check int) "zero candidates: all rows kept" 2 (Array.length v);
  Array.iter
    (fun row ->
      Alcotest.(check int) "zero candidates: empty row" 0 (Array.length row))
    i;
  match
    Camsim.Simulator.select_best (sim ())
      ~dist:[| [| 1.; 2. |] |]
      ~k:3 ~largest:false
  with
  | _ -> Alcotest.fail "k > candidates on a non-empty matrix must raise"
  | exception Camsim.Simulator.Error _ -> ()

(* ---- jobs-invariance of the parallel subarray search ------------------ *)

let test_subarray_search_jobs_invariant () =
  (* 16 queries x 32 rows is past the parallel threshold, so the jobs=4
     run takes the chunked path for both the packed-Hamming fast path
     and the generic cell-wise one. *)
  let stored =
    let rng = Rng.create 5 in
    Array.init 32 (fun _ ->
        Array.init 48 (fun _ -> float_of_int (Rng.int rng 2)))
  in
  let queries =
    let rng = Rng.create 9 in
    Array.init 16 (fun _ ->
        Array.init 48 (fun _ -> float_of_int (Rng.int rng 2)))
  in
  let search metric =
    let t = Camsim.Subarray.create ~rows:32 ~cols:48 ~bits:1 in
    Camsim.Subarray.write t stored;
    Camsim.Subarray.search t ~queries ~row_offset:0 ~rows:32 ~metric
  in
  List.iter
    (fun (name, metric) ->
      let seq = search metric in
      let par = Parallel.run ~jobs:4 (fun _ -> search metric) in
      Alcotest.(check Tutil.rows_testable)
        (name ^ ": jobs=1 = jobs=4") seq par)
    [ ("hamming", `Hamming); ("euclidean", `Euclidean) ]

(* ---- jobs-invariance of DSE sweeps and the autotuner ------------------ *)

let small_data =
  Workloads.Hdc.synthetic ~seed:3 ~dims:64 ~n_classes:4 ~n_queries:4
    ~bits:1 ()

let test_dse_sweep_jobs_invariant () =
  let specs =
    Archspec.Spec.
      [ square 16 Base; square 16 Power; square 32 Base; square 32 Power ]
  in
  let seq = C4cam.Dse.hdc_sweep ~specs ~data:small_data () in
  let par =
    Parallel.run ~jobs:4 (fun _ ->
        C4cam.Dse.hdc_sweep ~specs ~data:small_data ())
  in
  Alcotest.(check bool)
    "every metric and counter identical" true (seq = par);
  Alcotest.(check (list string))
    "results in specs order"
    (List.map C4cam.Dse.config_name specs)
    (List.map (fun (m : C4cam.Dse.measurement) -> m.config) par)

let test_autotune_jobs_invariant () =
  let eval () =
    C4cam.Autotune.evaluate_hdc ~sides:[ 16; 32 ]
      ~optimizations:Archspec.Spec.[ Base; Power ]
      ~data:small_data ()
  in
  let seq = eval () in
  let par = Parallel.run ~jobs:3 (fun _ -> eval ()) in
  Alcotest.(check bool) "identical candidate grid" true (seq = par)

(* ---- scf.parallel in the interpreter ---------------------------------- *)

(* scf.parallel is a timing rule (iteration latencies max-combine); its
   iterations run in order on the calling domain, so no jobs value may
   change what a loop computes. One loop over [0, n), three body shapes:
   - [`Disjoint]: out[i] <- in[i] * in[i]       (direct store)
   - [`Subview]:  out[i..i+1][0] <- in[i]        (a window per iteration)
   - [`Accumulate]: out[i] <- out[i] + in[i]     (reads the output buffer) *)
let loop_module ~parallel ~mode ~n =
  let arg_in = Value.fresh (Types.memref [ n ] Types.F32) in
  let arg_out = Value.fresh (Types.memref [ n ] Types.F32) in
  let b = Builder.create () in
  let lb = Dialects.Arith.const_index b 0 in
  let ub = Dialects.Arith.const_index b n in
  let step = Dialects.Arith.const_index b 1 in
  let loop = if parallel then Dialects.Scf.parallel else Dialects.Scf.for_ in
  loop b ~lb ~ub ~step (fun bi i ->
      let x = Dialects.Memref.load bi arg_in ~indices:[ i ] in
      (match mode with
      | `Disjoint ->
          let y = Dialects.Arith.mulf bi x x in
          Dialects.Memref.store bi y arg_out ~indices:[ i ]
      | `Subview ->
          let view =
            Dialects.Memref.subview bi arg_out ~offsets:[ i ] ~sizes:[ 1 ]
          in
          let zero = Dialects.Arith.const_index bi 0 in
          Dialects.Memref.store bi x view ~indices:[ zero ]
      | `Accumulate ->
          let prev = Dialects.Memref.load bi arg_out ~indices:[ i ] in
          let y = Dialects.Arith.addf bi prev x in
          Dialects.Memref.store bi y arg_out ~indices:[ i ]);
      Dialects.Scf.yield bi);
  Builder.op0 b "func.return";
  Func_ir.modul
    [ Func_ir.func "f" ~args:[ arg_in; arg_out ] ~ret:[] (Builder.finish b) ]

let run_loop m ~input =
  let n = Array.length input in
  let inb = Interp.Rtval.fresh_buffer [ n ] in
  Array.blit input 0 inb.Interp.Rtval.b_data 0 n;
  let outb = Interp.Rtval.fresh_buffer [ n ] in
  let outcome =
    Interp.Machine.run m "f"
      [ Interp.Rtval.Buffer inb; Interp.Rtval.Buffer outb ]
  in
  (Array.copy outb.Interp.Rtval.b_data, outcome.Interp.Machine.latency)

let test_scf_parallel_jobs_invariant () =
  let n = 64 in
  let input = Array.init n (fun i -> float_of_int i /. 3.) in
  let expected = function
    | `Disjoint -> Array.map (fun x -> x *. x) input
    | `Subview -> Array.copy input
    | `Accumulate -> Array.copy input (* out starts zeroed *)
  in
  List.iter
    (fun (name, mode) ->
      let m = loop_module ~parallel:true ~mode ~n in
      let d1, l1 = run_loop m ~input in
      let d4, l4 = Parallel.run ~jobs:4 (fun _ -> run_loop m ~input) in
      Alcotest.(check Tutil.rows_testable)
        (name ^ ": data jobs=1 = jobs=4") [| d1 |] [| d4 |];
      Tutil.check_float (name ^ ": latency jobs=1 = jobs=4") l1 l4;
      Alcotest.(check Tutil.rows_testable)
        (name ^ ": expected values")
        [| expected mode |] [| d4 |])
    [
      ("disjoint", `Disjoint); ("subview", `Subview);
      ("accumulate", `Accumulate);
    ]

let test_scf_parallel_matches_scf_for () =
  (* same body, sequential loop: identical data for the disjoint case *)
  let n = 48 in
  let input = Array.init n (fun i -> float_of_int (i mod 7)) in
  let seq, _ =
    run_loop (loop_module ~parallel:false ~mode:`Disjoint ~n) ~input
  in
  let par, _ =
    Parallel.run ~jobs:4 (fun _ ->
        run_loop (loop_module ~parallel:true ~mode:`Disjoint ~n) ~input)
  in
  Alcotest.(check Tutil.rows_testable) "scf.for = scf.parallel" [| seq |]
    [| par |]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "parallel_for ordering" `Quick
            test_parallel_for_order;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested run rejected" `Quick
            test_nested_run_rejected;
          Alcotest.test_case "nested parallel_for falls back" `Quick
            test_nested_parallel_for_sequential_fallback;
          Alcotest.test_case "default jobs override" `Quick
            test_default_jobs_override;
        ] );
      ( "rng",
        [ Alcotest.test_case "split streams" `Quick test_rng_split ] );
      ( "topk",
        [
          Alcotest.test_case "matches sort prefix" `Quick
            test_topk_matches_sort;
          Alcotest.test_case "select_best empty matrices" `Quick
            test_select_best_empty;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "subarray search" `Quick
            test_subarray_search_jobs_invariant;
          Alcotest.test_case "dse sweep" `Quick
            test_dse_sweep_jobs_invariant;
          Alcotest.test_case "autotune grid" `Quick
            test_autotune_jobs_invariant;
          Alcotest.test_case "scf.parallel interpreter path" `Quick
            test_scf_parallel_jobs_invariant;
          Alcotest.test_case "scf.parallel = scf.for" `Quick
            test_scf_parallel_matches_scf_for;
        ] );
    ]
