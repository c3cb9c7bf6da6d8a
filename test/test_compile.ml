(* The interpreter engine (lib/interp/compile.ml) against independent
   oracles: a pure OCaml evaluator of random scf nests, the register VM
   (a separate lowering of the same cam IR that shares no dispatch
   code) and brute-force host top-k for end-to-end kernels, plus the
   engine's exact failure messages. Also regression tests for the slot
   renaming and the simulator's query slot. See docs/INTERPRETER.md. *)

open Ir

(* ---- randomized loop-nest modules ------------------------------------ *)

(* A random scf nest over one shared memref: each level is scf.for or
   scf.parallel with a random trip count; the innermost body
   loads/updates/stores the cell indexed by its induction variable. *)
type nest = {
  levels : (string * int) list;  (* loop op and trip count, outermost first *)
  binop : string;  (* the innermost body's arith op *)
  width : int;  (* buffer cells: the largest trip count *)
}

let random_nest rng =
  let depth = 1 + Rng.int rng 3 in
  let shape = List.init depth (fun _ -> 1 + Rng.int rng 5) in
  let levels =
    List.map
      (fun iters ->
        ((if Rng.int rng 2 = 0 then "scf.for" else "scf.parallel"), iters))
      shape
  in
  let binop =
    match Rng.int rng 3 with
    | 0 -> "arith.addf"
    | 1 -> "arith.mulf"
    | _ -> "arith.subf"
  in
  { levels; binop; width = List.fold_left max 1 shape }

let nest_module { levels; binop; width } =
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
  let fresh = ref 0 in
  let v () =
    let n = !fresh in
    incr fresh;
    n
  in
  let arg = v () in
  add (Printf.sprintf "func @bench(%%%d: memref<%dxf64>) {\n" arg width);
  let zero = v () in
  add
    (Printf.sprintf "  %%%d = \"arith.constant\"() {value = 0} : () -> index\n"
       zero);
  let one = v () in
  add
    (Printf.sprintf "  %%%d = \"arith.constant\"() {value = 1} : () -> index\n"
       one);
  let rec nest iv = function
    | [] ->
        let l = v () in
        add
          (Printf.sprintf
             "  %%%d = \"memref.load\"(%%%d, %%%d) : (memref<%dxf64>, index) \
              -> f64\n"
             l arg iv width);
        let s = v () in
        add
          (Printf.sprintf "  %%%d = \"%s\"(%%%d, %%%d) : (f64, f64) -> f64\n"
             s binop l l);
        add
          (Printf.sprintf
             "  \"memref.store\"(%%%d, %%%d, %%%d) : (f64, memref<%dxf64>, \
              index) -> ()\n"
             s arg iv width)
    | (kind, iters) :: inner ->
        let ub = v () in
        add
          (Printf.sprintf
             "  %%%d = \"arith.constant\"() {value = %d} : () -> index\n" ub
             iters);
        add (Printf.sprintf "  \"%s\"(%%%d, %%%d, %%%d) ({\n" kind zero ub one);
        let level_iv = v () in
        add (Printf.sprintf "  ^(%%%d: index):\n" level_iv);
        nest level_iv inner;
        add "  }) : (index, index, index) -> ()\n"
  in
  nest zero levels;
  add
    (Printf.sprintf
       "  %%%d = \"memref.load\"(%%%d, %%%d) : (memref<%dxf64>, index) -> \
        f64\n"
       (v ()) arg zero width);
  add (Printf.sprintf "  \"func.return\"(%%%d) : (f64) -> ()\n" (!fresh - 1));
  add "}\n";
  Parser.parse_module (Buffer.contents buf)

let initial_cells width = Array.init width (fun i -> float_of_int (i + 1))

(* The oracle: the nest's meaning written directly in OCaml. Every op is
   a host op (zero latency), scf.for sums its iterations' latency and
   scf.parallel takes their maximum; each executed op bumps its
   dialect's counter once. Returns the final cells, the returned value,
   the latency and the per-dialect counts. *)
let eval_nest { levels; binop; width } =
  let cells = initial_cells width in
  let f =
    match binop with
    | "arith.addf" -> ( +. )
    | "arith.mulf" -> ( *. )
    | _ -> ( -. )
  in
  let arith = ref 2 (* the 0 and 1 constants *) and memref = ref 1
  and scf = ref 0 in
  let rec go iv = function
    | [] ->
        cells.(iv) <- f cells.(iv) cells.(iv);
        memref := !memref + 2;
        incr arith;
        0.
    | (kind, iters) :: inner ->
        incr arith (* the trip-count constant *);
        incr scf;
        let lats = List.init iters (fun i -> go i inner) in
        if kind = "scf.for" then List.fold_left ( +. ) 0. lats
        else List.fold_left Float.max 0. lats
  in
  let latency = go 0 levels in
  let counts =
    [ ("arith", !arith); ("func", 1); ("memref", !memref); ("scf", !scf) ]
  in
  (cells, cells.(0), latency, counts)

let test_random_nests () =
  for seed = 1 to 25 do
    let rng = Rng.create (100 + seed) in
    let n = random_nest rng in
    let m = nest_module n in
    let want_cells, want_ret, want_lat, want_counts = eval_nest n in
    List.iter
      (fun jobs ->
        let what = Printf.sprintf "seed %d jobs %d" seed jobs in
        Parallel.run ~jobs @@ fun _pool ->
        (* a fresh buffer per run: the nest mutates it *)
        let b = Interp.Rtval.fresh_buffer [ n.width ] in
        Array.iteri (fun i x -> Interp.Rtval.buffer_set b [ i ] x)
          (initial_cells n.width);
        let o = Interp.Machine.run m "bench" [ Interp.Rtval.Buffer b ] in
        let cells =
          Array.init n.width (fun i -> Interp.Rtval.buffer_get b [ i ])
        in
        Alcotest.(check Tutil.rows_testable)
          (what ^ ": buffer") [| want_cells |] [| cells |];
        (match o.results with
        | [ Interp.Rtval.Scalar x ] when Float.equal x want_ret -> ()
        | _ -> Alcotest.failf "%s: returned value" what);
        if o.latency <> want_lat then
          Alcotest.failf "%s: latency %.17g, want %.17g" what o.latency
            want_lat;
        Alcotest.(check (list (pair string int)))
          (what ^ ": ops_executed") want_counts o.ops_executed)
      [ 1; 4 ]
  done

(* ---- end-to-end kernels through the driver --------------------------- *)

(* Brute-force top-k: every (score, index) pair of a query row, sorted,
   the first [k] kept — lowest score first, ties toward the lower index. *)
let host_topk ~k score queries stored =
  let pick q =
    let all = Array.mapi (fun j s -> (score q s, j)) stored in
    Array.sort compare all;
    Array.sub all 0 k
  in
  let best = Array.map pick queries in
  (Array.map (Array.map fst) best, Array.map (Array.map snd) best)

let hamming a b =
  let d = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr d) a;
  float_of_int !d

let euclidean_sq a b =
  let s = ref 0. in
  Array.iteri (fun i x -> s := !s +. ((x -. b.(i)) *. (x -. b.(i)))) a;
  !s

(* The interpreter's run against the VM's (exactly equal results,
   latency and energy) and against host top-k: the same indices, and
   values up to the rounding of the device's tiled partial sums. *)
let check_kernel what (r : C4cam.Driver.run_result)
    (vm : C4cam.Driver.run_result) (want_values, want_indices) =
  Alcotest.(check Tutil.int_rows_testable)
    (what ^ ": indices = vm") vm.indices r.indices;
  Alcotest.(check Tutil.rows_testable)
    (what ^ ": values = vm") vm.values r.values;
  if r.latency <> vm.latency then
    Alcotest.failf "%s: latency %.17g, vm %.17g" what r.latency vm.latency;
  if r.energy <> vm.energy then
    Alcotest.failf "%s: energy %.17g, vm %.17g" what r.energy vm.energy;
  Alcotest.(check Tutil.int_rows_testable)
    (what ^ ": indices = host top-k") want_indices r.indices;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Tutil.check_float ~eps:1e-12 (what ^ ": value = host top-k") v
            r.values.(i).(j))
        row)
    want_values

let test_hdc_kernel () =
  let data =
    Workloads.Hdc.synthetic ~seed:11 ~noise:0.15 ~dims:256 ~n_classes:6
      ~n_queries:8 ~bits:1 ()
  in
  let c =
    C4cam.Driver.compile ~spec:Tutil.spec32
      (Workloads.Kernels.hdc_dot ~q:8 ~dims:256 ~classes:6 ~k:2)
  in
  let run () =
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
  in
  let vm = C4cam.Driver.run_vm c ~queries:data.queries ~stored:data.stored in
  let host = host_topk ~k:2 hamming data.queries data.stored in
  let reference = Parallel.run ~jobs:1 (fun _ -> run ()) in
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "jobs %d" jobs in
      let r = Parallel.run ~jobs (fun _ -> run ()) in
      check_kernel what r vm host;
      Alcotest.(check (list (pair string int)))
        (what ^ ": ops_executed") reference.ops_executed r.ops_executed)
    [ 1; 4 ]

let test_knn_kernel () =
  let ds =
    Workloads.Dataset.pneumonia_like ~seed:17 ~n_features:64
      ~samples_per_class:40 ()
  in
  let queries = Array.sub ds.features 0 4 in
  let spec = { Tutil.spec32 with cam_kind = Archspec.Spec.Mcam } in
  let c =
    C4cam.Driver.compile ~spec
      (Workloads.Kernels.knn_euclidean ~q:4 ~dims:64 ~n:64 ~k:3)
  in
  let stored = Array.sub ds.features 0 64 in
  check_kernel "knn"
    (C4cam.Driver.run_cam c ~queries ~stored)
    (C4cam.Driver.run_vm c ~queries ~stored)
    (host_topk ~k:3 euclidean_sq queries stored)

(* ---- failure messages ------------------------------------------------- *)

let test_failure_parity () =
  let cases =
    [
      (* unsupported op: dispatch failure *)
      ( "func @f() {\n  %0 = \"torch.bogus\"() : () -> index\n}",
        "Interp.Ops.Runtime_error(\"unsupported op torch.bogus\")" );
      (* decode failure: the missing-attribute exception is deferred
         from compile time to execution time *)
      ( "func @f() {\n  %0 = \"arith.constant\"() : () -> index\n}",
        "Invalid_argument(\"op arith.constant: missing attribute value\")"
      );
      (* runtime type failure inside a region *)
      ( "func @f() {\n\
        \  %0 = \"arith.constant\"() {value = 0} : () -> index\n\
        \  %1 = \"arith.constant\"() {value = 2} : () -> index\n\
        \  \"scf.for\"(%0, %1, %0) ({\n\
         ^(%2: index):\n\
        \  %3 = \"arith.addi\"(%2, %2) : (index, index) -> index\n\
         }) : (index, index, index) -> ()\n\
         }",
        "Interp.Ops.Runtime_error(\"loop: non-positive step\")" );
    ]
  in
  List.iteri
    (fun i (src, want) ->
      let got =
        match Interp.Machine.run (Parser.parse_module src) "f" [] with
        | _ -> Error "no exception"
        | exception e -> Ok (Printexc.to_string e)
      in
      Alcotest.(check (result string string))
        (Printf.sprintf "case %d" i) (Ok want) got)
    cases

let test_dead_malformed_op_silent () =
  (* a malformed op after the terminator is dead code: the engine must
     not decode (and so fail on) it *)
  let src =
    "func @f() {\n\
    \  \"func.return\"() : () -> ()\n\
    \  %0 = \"arith.constant\"() : () -> index\n\
     }"
  in
  match Interp.Machine.run (Parser.parse_module src) "f" [] with
  | { results = []; _ } -> ()
  | _ -> Alcotest.fail "expected an empty result list"
  | exception e -> Alcotest.failf "dead op raised: %s" (Printexc.to_string e)

(* Diagnostics name values the way the printer does in that function,
   even for IR built in-process long after the process-wide id counter
   left 0: the named %N must be findable in the function's text. *)
let percent_name msg =
  match String.index_opt msg '%' with
  | None -> Alcotest.failf "no value named in %S" msg
  | Some i ->
      let j = ref (i + 1) in
      while !j < String.length msg && msg.[!j] >= '0' && msg.[!j] <= '9' do
        incr j
      done;
      String.sub msg i (!j - i)

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let test_diagnostic_names () =
  ignore
    (C4cam.Driver.compile ~spec:Tutil.spec32
       (Workloads.Kernels.hdc_dot ~q:2 ~dims:64 ~classes:2 ~k:1));
  let const v n =
    Op.create ~results:[ v ] ~attrs:[ ("value", Attr.Int n) ] "arith.constant"
  in
  let fn_of ops = Func_ir.func "f" ~args:[] ~ret:[] ops in
  (* the value [msg] names is printed defined by [def] *)
  let found what fn msg def =
    let line = percent_name msg ^ " = " ^ def in
    let text = Printer.func_to_string fn in
    if not (contains text line) then
      Alcotest.failf "%s: %S, but no %S in\n%s" what msg line text
  in
  (* used before definition: %x is read by the add, defined after it *)
  let x = Value.fresh Types.Index and y = Value.fresh Types.Index in
  let z = Value.fresh Types.Index in
  let late =
    fn_of
      [
        const y 1;
        Op.create ~operands:[ x; y ] ~results:[ z ] "arith.addi";
        const x 7;
        Op.create ~operands:[ z ] "func.return";
      ]
  in
  let defined_late = "\"arith.constant\"() {value = 7}" in
  (match Verifier.verify_func late with
  | Error e -> found "verifier" late e.message defined_late
  | Ok () -> Alcotest.fail "verifier accepted a use before definition");
  (match Interp.Machine.run (Func_ir.modul [ late ]) "f" [] with
  | _ -> Alcotest.fail "engine ran a use of an unbound value"
  | exception Interp.Machine.Runtime_error msg ->
      found "engine" late msg defined_late);
  (* defined twice: one value, two constants *)
  let v = Value.fresh Types.Index in
  let twice = fn_of [ const v 1; const v 2 ] in
  match Verifier.verify_func twice with
  | Error e ->
      found "verifier" twice e.message "\"arith.constant\"() {value = 1}";
      found "verifier" twice e.message "\"arith.constant\"() {value = 2}"
  | Ok () -> Alcotest.fail "verifier accepted a value defined twice"

(* ---- cam.read -> cam.merge_partial fusion ----------------------------- *)

(* The hdc kernel's cam module as text, and the same text with a second,
   dead use of every cam.read result after the function's return: the
   engine never compiles or runs it, but it makes each read's result
   used twice, so every read takes the copying path. *)
let hdc_cam_text () =
  let c =
    C4cam.Driver.compile ~spec:Tutil.spec32
      (Workloads.Kernels.hdc_dot ~q:8 ~dims:256 ~classes:6 ~k:2)
  in
  (c, Printer.module_to_string c.cam_ir)

let with_second_uses text =
  let lines = String.split_on_char '\n' text in
  let dead =
    List.filter_map
      (fun l ->
        if contains l "\"cam.read\"" then
          let v = String.trim (List.hd (String.split_on_char '=' l)) in
          let k = String.rindex l ' ' in
          let ty = String.sub l (k + 1) (String.length l - k - 1) in
          Some
            (Printf.sprintf
               "  \"cam.merge_partial\"(%s, %s) {direction = #horizontal, \
                kind = #add} : (%s, %s) -> ()"
               v v ty ty)
        else None)
      lines
  in
  if dead = [] then Alcotest.fail "no cam.read in the module";
  String.concat "\n"
    (List.concat_map
       (fun l ->
         if String.starts_with ~prefix:"  \"func.return\"" l then l :: dead
         else [ l ])
       lines)

(* Run [text] fused and copying ([with_second_uses]) twice each and
   return each form's second result with the minor words it took. *)
let fused_and_copying text run =
  let words m =
    ignore (run m);
    let before = Gc.minor_words () in
    let r = run m in
    (r, Gc.minor_words () -. before)
  in
  ( words (Parser.parse_module text),
    words (Parser.parse_module (with_second_uses text)) )

let same_charges ~what (la, ea, oa) (lb, eb, ob) =
  if la <> lb then Alcotest.failf "%s latency %.17g, copying %.17g" what la lb;
  if ea <> eb then Alcotest.failf "%s energy %.17g, copying %.17g" what ea eb;
  Alcotest.(check (list (pair string int))) (what ^ " ops_executed") oa ob

(* cam.read -> cam.merge_partial (the hdc tile nest) and cam.read ->
   cam.select_best (the ACAM range module): the fused form gives the
   copying form's results and charges without its buffers. *)
let test_fusion_matches_copying () =
  Parallel.run ~jobs:1 @@ fun _pool ->
  let data =
    Workloads.Hdc.synthetic ~seed:5 ~dims:256 ~n_classes:6 ~n_queries:8
      ~bits:1 ()
  in
  let c, text = hdc_cam_text () in
  let (a, wa), (b, wb) =
    fused_and_copying text (fun m ->
        C4cam.Driver.run_cam { c with cam_ir = m } ~queries:data.queries
          ~stored:data.stored)
  in
  Alcotest.(check Tutil.int_rows_testable) "indices" a.indices b.indices;
  Alcotest.(check Tutil.rows_testable) "values" a.values b.values;
  same_charges ~what:"merge" (a.latency, a.energy, a.ops_executed)
    (b.latency, b.energy, b.ops_executed);
  (* the copying form builds one q x rows buffer per executed read *)
  let reads = b.stats.Camsim.Stats.n_search_ops in
  if wb -. wa < float_of_int (reads * 8 * 6) then
    Alcotest.failf "copying form allocated %.0f words more for %d reads"
      (wb -. wa) reads;
  let q = 16 and boxes = 24 and dims = 8 in
  let w =
    Workloads.Range_filter.generate ~seed:11 ~boxes ~dims ~n_queries:q ()
  in
  let rc =
    C4cam.Acam.compile ~spec:(C4cam.Acam.fit_spec ~boxes ~dims ()) ~q ~boxes
      ~dims
  in
  let (a, wa), (b, wb) =
    fused_and_copying
      (Printer.module_to_string rc.ra_modul)
      (fun m ->
        C4cam.Acam.run { rc with ra_modul = m } ~lo:w.lo ~hi:w.hi
          ~queries:w.queries)
  in
  Alcotest.(check Tutil.int_rows_testable)
    "select indices" a.indices b.indices;
  Alcotest.(check Tutil.rows_testable) "select values" a.values b.values;
  Alcotest.(check (array int)) "matches" w.expected a.matches;
  same_charges ~what:"select" (a.latency, a.energy, a.ops_executed)
    (b.latency, b.energy, b.ops_executed);
  (* the copying form builds the q x boxes buffer and copies it back
     out for the select *)
  if wb -. wa < float_of_int (2 * q * boxes) then
    Alcotest.failf "copying select allocated %.0f words more, want >= %d"
      (wb -. wa) (2 * q * boxes)

(* A read and its one consumer over a 4x4 subarray; [search] searches
   the argument first, and [second_use] adds a dead second use of the
   read after the return, which puts the read in the copying form. *)
let read_pair_text ~search ~consumer ~second_use =
  "func @f(%0: memref<2x2xf32>) {\n\
  \  %1 = \"cam.alloc_bank\"() {rows = 4, cols = 4} : () -> !cam.bank_id\n\
  \  %2 = \"cam.alloc_mat\"(%1) : (!cam.bank_id) -> !cam.mat_id\n\
  \  %3 = \"cam.alloc_array\"(%2) : (!cam.mat_id) -> !cam.array_id\n\
  \  %4 = \"cam.alloc_subarray\"(%3) : (!cam.array_id) -> !cam.subarray_id\n"
  ^ (if search then
       "  %8 = \"arith.constant\"() {value = 0} : () -> index\n\
       \  \"cam.search\"(%4, %0, %8) {kind = #best, metric = #hamming, rows = \
        2} : (!cam.subarray_id, memref<2x2xf32>, index) -> ()\n"
     else "")
  ^ "  %5 = \"cam.read\"(%4) {queries = 2, rows = 2} : (!cam.subarray_id) -> \
     memref<2x2xf32>\n"
  ^ (match consumer with
    | `Merge ->
        "  \"cam.merge_partial\"(%0, %5) {direction = #horizontal, kind = \
         #add} : (memref<2x2xf32>, memref<2x2xf32>) -> ()\n"
    | `Select k ->
        Printf.sprintf
          "  %%6, %%7 = \"cam.select_best\"(%%5) {k = %d, largest = false} : \
           (memref<2x2xf32>) -> (memref<2x%dxf32>, memref<2x%dxi32>)\n"
          k k k)
  ^ "  \"func.return\"() : () -> ()\n"
  ^ (if second_use then
       "  \"cam.merge_partial\"(%5, %5) {direction = #horizontal, kind = \
        #add} : (memref<2x2xf32>, memref<2x2xf32>) -> ()\n"
     else "")
  ^ "}"

(* A read before any search, and a select of more rows than were
   searched, fail alike in both forms. *)
let test_fusion_read_error () =
  let fails ~search ~consumer second_use =
    let sim = Camsim.Simulator.create (Archspec.Spec.square 4 Archspec.Spec.Base) in
    let arg =
      Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows [| [| 0.; 0. |]; [| 0.; 0. |] |])
    in
    let m =
      Parser.parse_module (read_pair_text ~search ~consumer ~second_use)
    in
    match Interp.Machine.run ~sim m "f" [ arg ] with
    | _ -> Alcotest.fail "the pair ran"
    | exception e -> Printexc.to_string e
  in
  List.iter
    (fun (what, search, consumer, want) ->
      let fused = fails ~search ~consumer false in
      Alcotest.(check bool) (what ^ ": " ^ fused) true (contains fused want);
      Alcotest.(check string)
        (what ^ ": same failure in both forms")
        fused
        (fails ~search ~consumer true))
    [
      ("merge before search", false, `Merge, "no search has been performed");
      ( "select before search", false, `Select 1,
        "no search has been performed" );
      ("select k > rows", true, `Select 3, "k=3 exceeds 2 candidates");
    ]

(* Steady-state Range_store batches at jobs 1 allocate at most 1,000
   minor words per query: the whole-window range loop writes its counts
   unboxed and each shard's select ranks the latched rows in place. *)
let test_range_store_alloc () =
  Parallel.run ~jobs:1 @@ fun _pool ->
  let q = 8 and boxes = 4096 and dims = 16 in
  let w =
    Workloads.Range_filter.generate ~seed:21 ~boxes ~dims ~n_queries:(4 * q) ()
  in
  let st = Serve.Range_store.create ~shards:4 ~q ~lo:w.lo ~hi:w.hi () in
  let batches = Array.init 4 (fun i -> Array.sub w.queries (i * q) q) in
  Array.iter (fun b -> ignore (Serve.Range_store.query st b)) batches;
  let before = Gc.minor_words () in
  Array.iter (fun b -> ignore (Serve.Range_store.query st b)) batches;
  let per_query = (Gc.minor_words () -. before) /. float_of_int (4 * q) in
  if per_query > 1000. then
    Alcotest.failf "%.0f minor words per range query, bound 1000" per_query

(* Steady-state Sharded_store batches at jobs 1 allocate at most 4,600
   minor words per query on the store-32k shape (32,768 binary rows of
   64 cells, 4 shards, q 8, top-3, 64x64 Base): the tile nest runs from
   its plan, which builds no index, buffer or subview value. *)
let test_sharded_store_alloc () =
  Parallel.run ~jobs:1 @@ fun _pool ->
  let q = 8 and d = 64 and rows = 32_768 in
  let spec = Archspec.Spec.square 64 Archspec.Spec.Base in
  let rng = Rng.create 3268 in
  let bits () = Array.init d (fun _ -> float_of_int (Rng.int rng 2)) in
  let st =
    Serve.Sharded_store.create ~spec ~q ~d ~k:3 ~shards:4 ~capacity:rows ()
  in
  for _ = 1 to rows do
    ignore (Serve.Sharded_store.insert st (bits ()))
  done;
  let batches = Array.init 4 (fun _ -> Array.init q (fun _ -> bits ())) in
  Array.iter (fun b -> ignore (Serve.Sharded_store.query st b)) batches;
  let before = Gc.minor_words () in
  Array.iter (fun b -> ignore (Serve.Sharded_store.query st b)) batches;
  let per_query = (Gc.minor_words () -. before) /. float_of_int (4 * q) in
  if per_query > 4600. then
    Alcotest.failf "%.0f minor words per store query, bound 4600" per_query

(* ---- tile plans --------------------------------------------------------- *)

(* A cam-level module whose tile nest runs from its plan, held to two
   oracles: the register VM, and the same module with its root loop's
   upper bound made a function argument, which no plan can be built
   against, so the generic closures run it. *)

(* [text] with the root loop's upper bound read from a new index
   argument; returns the text and the bound's value. *)
let bound_as_argument text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let root =
    let rec find i =
      if i = Array.length lines then Alcotest.fail "no root loop"
      else
        let l = lines.(i) in
        if
          String.starts_with ~prefix:"  \"scf.parallel\"(" l
          || String.starts_with ~prefix:"  \"scf.for\"(" l
        then i
        else find (i + 1)
    in
    find 0
  in
  let l = lines.(root) in
  let a = String.index l '(' in
  let b = String.index_from l a ')' in
  let ub =
    match String.split_on_char ',' (String.sub l (a + 1) (b - a - 1)) with
    | [ _; ub; _ ] -> String.trim ub
    | _ -> Alcotest.failf "bad loop line %S" l
  in
  let value =
    let prefix = "  " ^ ub ^ " = \"arith.constant\"() {value = " in
    match
      Array.find_opt (String.starts_with ~prefix) lines
    with
    | Some d ->
        let rest = String.sub d (String.length prefix) (String.length d - String.length prefix) in
        int_of_string (List.hd (String.split_on_char '}' rest))
    | None -> Alcotest.failf "no constant %s" ub
  in
  lines.(root) <-
    String.concat ""
      [ String.sub l 0 (a + 1);
        (match String.split_on_char ',' (String.sub l (a + 1) (b - a - 1)) with
        | [ lb; _; step ] -> String.concat "," [ lb; " %999"; step ]
        | _ -> assert false);
        String.sub l b (String.length l - b) ];
  let header = ref true in
  let lines =
    Array.map
      (fun l ->
        if !header && String.starts_with ~prefix:"func @" l then begin
          header := false;
          let c = String.index l ')' in
          String.sub l 0 c ^ ", %999: index" ^ String.sub l c (String.length l - c)
        end
        else l)
      lines
  in
  (String.concat "\n" (Array.to_list lines), value)

type plan_case = {
  pc_spec : Archspec.Spec.t;
  pc_q : int;
  pc_r : int;  (* query rows of the lowering run, r <= q *)
  pc_d : int;
  pc_n : int;
  pc_k : int;
  pc_form : [ `Topk | `Scores | `Eucl ];
  pc_seed : int;
}

let print_plan_case c =
  Printf.sprintf "%s q=%d r=%d d=%d n=%d k=%d %s seed=%d"
    (Archspec.Spec.to_string c.pc_spec)
    c.pc_q c.pc_r c.pc_d c.pc_n c.pc_k
    (match c.pc_form with `Topk -> "topk" | `Scores -> "scores" | `Eucl -> "eucl")
    c.pc_seed

let gen_plan_case =
  let open QCheck.Gen in
  let mode = oneofl Archspec.Spec.[ Sequential; Parallel ] in
  let* side = oneofl [ 4; 8 ] in
  let* opt = oneofl Archspec.Spec.[ Base; Power; Density; Power_density ] in
  let* subs = int_range 1 4 and* arrays = int_range 1 3 and* mats = int_range 1 3 in
  let* bank_mode = mode and* mat_mode = mode and* array_mode = mode
  and* subarray_mode = mode in
  let* form = oneofl [ `Topk; `Scores; `Eucl ] in
  let* q = int_range 1 3 in
  let* r = int_range 1 q in
  let* col_chunks = int_range 1 3 in
  let* n =
    oneof [ int_range 2 side; map (fun m -> m * side) (int_range 1 6) ]
  in
  let* k = int_range 1 (min n 3) in
  let* seed = int_range 1 1_000_000 in
  let base = Archspec.Spec.square side opt in
  let spec =
    {
      base with
      subarrays_per_array = subs;
      arrays_per_mat = arrays;
      mats_per_bank = mats;
      bank_mode;
      mat_mode;
      array_mode;
      subarray_mode;
      cam_kind = (if form = `Eucl then Archspec.Spec.Mcam else base.cam_kind);
      bits = (if form = `Eucl then 2 else base.bits);
    }
  in
  return
    { pc_spec = spec; pc_q = q; pc_r = r; pc_d = side * col_chunks;
      pc_n = n; pc_k = k; pc_form = form; pc_seed = seed }

let stats_copy s =
  let c = Camsim.Stats.create () in
  Camsim.Stats.add_into ~into:c s;
  c

(* One recording run and one sealed replay of [run] on a fresh
   simulator: each run's result rows, latency, ops and ledger. *)
let record_replay spec ~r run =
  let sim = Camsim.Simulator.create spec in
  Camsim.Simulator.set_query_hint sim r;
  Camsim.Simulator.start_recording sim;
  let once () =
    let rows, lat, ops = run sim in
    (rows, lat, ops, stats_copy (Camsim.Simulator.stats sim))
  in
  let first = once () in
  Camsim.Simulator.seal_recording sim;
  Camsim.Simulator.rewind sim;
  [ first; once () ]

let prop_plans =
  QCheck.Test.make ~count:40 ~name:"tile plans = vm = generic closures"
    (QCheck.make ~print:print_plan_case gen_plan_case)
    (fun c ->
      let src =
        match c.pc_form with
        | `Topk -> Workloads.Kernels.hdc_dot ~q:c.pc_q ~dims:c.pc_d ~classes:c.pc_n ~k:c.pc_k
        | `Scores -> Workloads.Kernels.hdc_dot_scores ~q:c.pc_q ~dims:c.pc_d ~classes:c.pc_n
        | `Eucl -> Workloads.Kernels.knn_euclidean ~q:c.pc_q ~dims:c.pc_d ~n:c.pc_n ~k:c.pc_k
      in
      match C4cam.Driver.compile ~spec:c.pc_spec src with
      | exception C4cam.Driver.Compile_error _ -> QCheck.assume_fail ()
      | compiled ->
          let m =
            if c.pc_r = c.pc_q then compiled.cam_ir
            else C4cam.Driver.lower_rows compiled c.pc_r
          in
          let rng = Rng.create c.pc_seed in
          let levels = if c.pc_form = `Eucl then 4 else 2 in
          let mk rows =
            Array.init rows (fun _ ->
                Array.init c.pc_d (fun _ -> float_of_int (Rng.int rng levels)))
          in
          let queries = mk c.pc_r and stored = mk c.pc_n in
          let args () =
            let qv = C4cam.Driver.wrap_rows queries
            and sv = C4cam.Driver.wrap_rows stored in
            if compiled.info.query_arg = 0 then [ qv; sv ] else [ sv; qv ]
          in
          let fn = compiled.fn_name in
          let rows_of (rs : Interp.Rtval.t list) = List.map Interp.Rtval.to_rows rs in
          let interp m extra sim =
            let o = Interp.Machine.run ~sim m fn (args () @ extra) in
            (rows_of o.results, o.latency, o.ops_executed)
          in
          let text, ub = bound_as_argument (Printer.module_to_string m) in
          let generic = Parser.parse_module text in
          let program = Vm.Lower.modul m fn in
          let vm sim =
            let o = Vm.Exec.run ~sim program (args ()) in
            (rows_of o.results, o.latency, [])
          in
          List.iter
            (fun jobs ->
              Parallel.run ~jobs @@ fun _ ->
              let spec = c.pc_spec and r = c.pc_r in
              let planned = record_replay spec ~r (interp m []) in
              let closures =
                record_replay spec ~r (interp generic [ Interp.Rtval.Index ub ])
              in
              let vm = record_replay spec ~r vm in
              List.iteri
                (fun i ((rows, lat, ops, st), (grows, glat, gops, gst), (vrows, vlat, _, vst)) ->
                  let what = Printf.sprintf "jobs %d run %d" jobs i in
                  let same_rows w a b =
                    if not (List.equal (fun x y -> x = y) a b) then
                      QCheck.Test.fail_reportf "%s: results differ from the %s" what w
                  in
                  same_rows "closures" rows grows;
                  same_rows "vm" rows vrows;
                  if not (Float.equal lat glat && Float.equal lat vlat) then
                    QCheck.Test.fail_reportf "%s: latency %.17g, closures %.17g, vm %.17g"
                      what lat glat vlat;
                  if ops <> gops then
                    QCheck.Test.fail_reportf "%s: ops_executed differ" what;
                  if st <> gst || st <> vst then
                    QCheck.Test.fail_reportf "%s: ledgers differ:\n%s\n%s\n%s" what
                      (Camsim.Stats.to_string st) (Camsim.Stats.to_string gst)
                      (Camsim.Stats.to_string vst))
                (List.map2
                   (fun a (b, v) -> (a, b, v))
                   planned (List.combine closures vm)))
            [ 1; 4 ];
          true)

(* The planned module and its generic twin fail alike: on an argument
   narrower than declared (the plan's check falls back to the closures)
   and on a read before any search (a simulator error either way). *)
let test_plan_error_parity () =
  let c =
    C4cam.Driver.compile ~spec:Tutil.spec32
      (Workloads.Kernels.hdc_dot_scores ~q:2 ~dims:64 ~classes:64)
  in
  let text = Printer.module_to_string c.cam_ir in
  let no_search =
    String.concat "\n"
      (List.filter
         (fun l -> not (contains l "\"cam.search\""))
         (String.split_on_char '\n' text))
  in
  let fails text ~cols =
    let generic, ub = bound_as_argument text in
    let run m extra =
      let sim = Camsim.Simulator.create Tutil.spec32 in
      let q = C4cam.Driver.wrap_rows (Array.make_matrix 2 cols 0.)
      and s = C4cam.Driver.wrap_rows (Array.make_matrix 64 64 0.) in
      match Interp.Machine.run ~sim (Parser.parse_module m) c.fn_name ([ q; s ] @ extra) with
      | _ -> Alcotest.fail "the module ran"
      | exception e -> Printexc.to_string e
    in
    (run text [], run generic [ Interp.Rtval.Index ub ])
  in
  List.iter
    (fun (what, text, cols, want) ->
      let planned, closures = fails text ~cols in
      Alcotest.(check string) (what ^ ": the closures' failure") closures planned;
      Alcotest.(check bool) (what ^ ": " ^ planned) true (contains planned want))
    [
      ("narrow argument", text, 48, "buffer_view: window out of bounds");
      ("read before search", no_search, 64, "no search has been performed");
    ]

(* ---- slot renaming regressions ---------------------------------------- *)

(* A block argument that shadows the function argument (same SSA id):
   both values map to one slot, so a use after the loop observes the
   loop's last binding. *)
let test_shadowed_block_arg () =
  let arg = Value.fresh Types.Index in
  let shadow = Value.with_id arg.id Types.Index in
  let b = Builder.create () in
  let const n = Builder.op1 b ~attrs:[ ("value", Attr.Int n) ] "arith.constant" Types.Index in
  let lb = const 0 and ub = const 5 and step = const 1 in
  let body =
    [ Op.create "arith.addi" ~operands:[ shadow; shadow ] ~results:[ Value.fresh Types.Index ] ]
  in
  Builder.op0 b
    ~operands:[ lb; ub; step ]
    ~regions:[ Op.region ~args:[ shadow ] body ]
    "scf.for";
  Builder.op0 b ~operands:[ arg ] "func.return";
  let m =
    Func_ir.modul
      [ Func_ir.func "f" ~args:[ arg ] ~ret:[ Types.Index ] (Builder.finish b) ]
  in
  match Interp.Machine.run m "f" [ Interp.Rtval.Index 99 ] with
  | { results = [ Interp.Rtval.Index 4 ]; _ } -> ()
  | { results = [ Interp.Rtval.Index n ]; _ } ->
      Alcotest.failf "saw %d, want the last binding 4" n
  | _ -> Alcotest.fail "bad result shape"

(* cim.execute yields out of a nested region; the yielded values bind to
   the op's results. *)
let test_nested_region_yield () =
  let src =
    "func @f() {\n\
    \  %0 = \"arith.constant\"() {value = 20} : () -> index\n\
    \  %1 = \"cim.execute\"() ({\n\
    \  %2 = \"arith.constant\"() {value = 3} : () -> index\n\
    \  %3 = \"arith.addi\"(%2, %2) : (index, index) -> index\n\
    \  \"cim.yield\"(%3) : (index) -> ()\n\
     }) : () -> index\n\
    \  %4 = \"arith.addi\"(%1, %0) : (index, index) -> index\n\
    \  \"func.return\"(%4) : (index) -> ()\n\
     }"
  in
  match Interp.Machine.run (Parser.parse_module src) "f" [] with
  | { results = [ Interp.Rtval.Index 26 ]; latency = 0.; ops_executed } ->
      Alcotest.(check (list (pair string int)))
        "ops_executed" [ ("arith", 4); ("cim", 2); ("func", 1) ] ops_executed
  | _ -> Alcotest.fail "expected 26"

(* ---- the query slot --------------------------------------------------- *)

(* A 4x4 binary subarray; [search_at] reads two queries of 4 cells in
   place from [data] at [off] under [stamp] and returns the distances.
   Both queries pack, so the search reads only the slot's packs: after
   a change to [data] that nobody reports, a slot hit still answers
   from the old packs, and only a re-pack sees the change. [fresh]
   searches the rows the window holds now. *)
let slot_sim () =
  let open Camsim in
  let sim = Simulator.create (Archspec.Spec.square 4 Archspec.Spec.Base) in
  let bank = Simulator.alloc_bank sim ~rows:4 ~cols:4 in
  let sub =
    Simulator.alloc_subarray sim
      (Simulator.alloc_array sim (Simulator.alloc_mat sim bank))
  in
  let row i = Array.init 4 (fun j -> float_of_int ((i + j) mod 2)) in
  ignore (Simulator.write sim sub ~row_offset:0 (Array.init 4 row));
  (sim, sub)

let search_at (sim, sub) data ~off ~stamp =
  ignore
    (Camsim.Simulator.search_view sim sub ~row_offset:0 ~rows:4 ~kind:`Best
       ~metric:`Hamming ~batch_extra:false ~threshold:0. ~q:2 ~cols:4 data
       ~off ~rs:4 ~cs:1 ~stamp);
  Array.map Array.copy (Camsim.Simulator.read sim sub)

let fresh (sim, sub) data ~off =
  let queries = Array.init 2 (fun i -> Array.sub data (off + (4 * i)) 4) in
  ignore
    (Camsim.Simulator.search sim sub ~queries ~row_offset:0 ~rows:4
       ~kind:`Best ~metric:`Hamming ());
  Array.map Array.copy (Camsim.Simulator.read sim sub)

let slot_data () = Array.init 16 (fun i -> float_of_int (i mod 2))

(* an unreported change to the first query of the window at [off] *)
let flip data off = data.(off) <- 1. -. data.(off)

(* A hit re-packs nothing: T searches of one window in one run answer
   from the packs of the first; a new run's stamp re-packs. *)
let test_slot_hit () =
  let s = slot_sim () and data = slot_data () in
  let stamp = Camsim.Scratch.fresh_stamp () in
  let before = search_at s data ~off:4 ~stamp in
  flip data 4;
  Alcotest.(check Tutil.rows_testable) "hit: the packs of the first search"
    before (search_at s data ~off:4 ~stamp);
  let next_run =
    search_at s data ~off:4 ~stamp:(Camsim.Scratch.fresh_stamp ())
  in
  Alcotest.(check Tutil.rows_testable) "a new run re-packs"
    (fresh s data ~off:4) next_run;
  Alcotest.(check bool) "the change shows" true (before <> next_run)

(* One slot per domain: a second window evicts the first, which then
   re-packs. *)
let test_slot_evicts () =
  let s = slot_sim () and data = slot_data () in
  let stamp = Camsim.Scratch.fresh_stamp () in
  ignore (search_at s data ~off:0 ~stamp);
  flip data 0;
  ignore (search_at s data ~off:8 ~stamp);
  let again = search_at s data ~off:0 ~stamp in
  Alcotest.(check Tutil.rows_testable) "evicted window re-packed"
    (fresh s data ~off:0) again

(* An in-run write into the searched backing drops the slot; a write
   into another store leaves it. *)
let test_slot_dropped_by_write () =
  let s = slot_sim () and data = slot_data () in
  let stamp = Camsim.Scratch.fresh_stamp () in
  let before = search_at s data ~off:0 ~stamp in
  flip data 0;
  Camsim.Scratch.drop_queries (slot_data ());
  Alcotest.(check Tutil.rows_testable) "other store: still a hit" before
    (search_at s data ~off:0 ~stamp);
  Camsim.Scratch.drop_queries data;
  let after = search_at s data ~off:0 ~stamp in
  Alcotest.(check Tutil.rows_testable) "own store: re-packed"
    (fresh s data ~off:0) after

(* Through the interpreter: a memref.store into the query buffer
   between two searches of one run is seen by the second. *)
let test_store_between_searches () =
  let text =
    "func @f(%0: memref<2x4xf32>, %1: memref<4x4xf32>) -> \
     (memref<2x4xf32>, memref<2x4xf32>) {\n\
    \  %2 = \"memref.alloc\"() : () -> memref<2x4xf32>\n\
    \  %3 = \"memref.alloc\"() : () -> memref<2x4xf32>\n\
    \  %4 = \"arith.constant\"() {value = 0} : () -> index\n\
    \  %5 = \"arith.constant\"() {value = 1} : () -> f32\n\
    \  %6 = \"cam.alloc_bank\"() {rows = 4, cols = 4} : () -> !cam.bank_id\n\
    \  %7 = \"cam.alloc_mat\"(%6) : (!cam.bank_id) -> !cam.mat_id\n\
    \  %8 = \"cam.alloc_array\"(%7) : (!cam.mat_id) -> !cam.array_id\n\
    \  %9 = \"cam.alloc_subarray\"(%8) : (!cam.array_id) -> \
     !cam.subarray_id\n\
    \  \"cam.write_value\"(%9, %1, %4) : (!cam.subarray_id, \
     memref<4x4xf32>, index) -> ()\n\
    \  \"cam.search\"(%9, %0, %4) {kind = #best, metric = #hamming, rows = \
     4} : (!cam.subarray_id, memref<2x4xf32>, index) -> ()\n\
    \  %10 = \"cam.read\"(%9) {queries = 2, rows = 4} : (!cam.subarray_id) \
     -> memref<2x4xf32>\n\
    \  \"cam.merge_partial\"(%2, %10) {direction = #horizontal, kind = \
     #add} : (memref<2x4xf32>, memref<2x4xf32>) -> ()\n\
    \  \"memref.store\"(%5, %0, %4, %4) : (f32, memref<2x4xf32>, index, \
     index) -> ()\n\
    \  \"cam.search\"(%9, %0, %4) {kind = #best, metric = #hamming, rows = \
     4} : (!cam.subarray_id, memref<2x4xf32>, index) -> ()\n\
    \  %11 = \"cam.read\"(%9) {queries = 2, rows = 4} : (!cam.subarray_id) \
     -> memref<2x4xf32>\n\
    \  \"cam.merge_partial\"(%3, %11) {direction = #horizontal, kind = \
     #add} : (memref<2x4xf32>, memref<2x4xf32>) -> ()\n\
    \  \"func.return\"(%2, %3) : (memref<2x4xf32>, memref<2x4xf32>) -> ()\n\
     }"
  in
  let stored =
    Array.init 4 (fun i -> Array.init 4 (fun j -> float_of_int ((i + j) mod 2)))
  in
  let queries = [| [| 0.; 0.; 0.; 0. |]; [| 1.; 1.; 1.; 1. |] |] in
  let hamming a b =
    Array.map
      (fun q ->
        Array.map
          (fun r ->
            float_of_int
              (Array.fold_left ( + ) 0
                 (Array.mapi (fun j x -> if x <> r.(j) then 1 else 0) q)))
          b)
      a
  in
  let sim =
    Camsim.Simulator.create (Archspec.Spec.square 4 Archspec.Spec.Base)
  in
  let buf rows = Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows rows) in
  match
    Interp.Machine.run ~sim (Parser.parse_module text) "f"
      [ buf queries; buf stored ]
  with
  | { results = [ first; second ]; _ } ->
      let after = Array.map Array.copy queries in
      after.(0).(0) <- 1.;
      Alcotest.(check Tutil.rows_testable) "first search"
        (hamming queries stored) (Interp.Rtval.to_rows first);
      Alcotest.(check Tutil.rows_testable) "second search sees the store"
        (hamming after stored) (Interp.Rtval.to_rows second)
  | _ -> Alcotest.fail "expected two results"

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        [
          Alcotest.test_case "random scf nests, jobs 1 and 4" `Quick
            test_random_nests;
          Alcotest.test_case "hdc kernel end to end" `Quick test_hdc_kernel;
          Alcotest.test_case "knn kernel end to end" `Quick test_knn_kernel;
          Alcotest.test_case "failure parity" `Quick test_failure_parity;
          Alcotest.test_case "diagnostics name values as printed" `Quick
            test_diagnostic_names;
          Alcotest.test_case "dead malformed op stays silent" `Quick
            test_dead_malformed_op_silent;
        ] );
      ( "slots",
        [
          Alcotest.test_case "shadowed block arg shares its slot" `Quick
            test_shadowed_block_arg;
          Alcotest.test_case "nested-region yield" `Quick
            test_nested_region_yield;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "fused equals copying read" `Quick
            test_fusion_matches_copying;
          Alcotest.test_case "read before search fails alike" `Quick
            test_fusion_read_error;
          Alcotest.test_case "range store batch allocation" `Quick
            test_range_store_alloc;
          Alcotest.test_case "sharded store batch allocation" `Quick
            test_sharded_store_alloc;
        ] );
      ( "tile plans",
        [
          QCheck_alcotest.to_alcotest prop_plans;
          Alcotest.test_case "failures match the closures'" `Quick
            test_plan_error_parity;
        ] );
      ( "query slot",
        [
          Alcotest.test_case "bounded and evicts" `Quick test_slot_evicts;
          Alcotest.test_case "a hit re-packs nothing" `Quick test_slot_hit;
          Alcotest.test_case "a write into the backing drops it" `Quick
            test_slot_dropped_by_write;
          Alcotest.test_case "a store between searches is seen" `Quick
            test_store_between_searches;
        ] );
    ]
