(* Serving sessions: the batch-split determinism contract, one-time
   setup cost, incremental stored updates and the compiled-artifact
   cache (docs/SERVING.md). *)

module Session = Serve.Session
module Cache = Serve.Artifact_cache

let spec = Tutil.spec32

let hdc_data ~q ~dims ~classes ?(seed = 23) () =
  Workloads.Hdc.synthetic ~seed ~noise:0.15 ~dims ~n_classes:classes
    ~n_queries:q ~bits:1 ()

(* ---- batch-split vs concatenated differential -------------------------- *)

(* Serving N batches of q queries must produce byte-identical
   values/indices and the same summed activity counters as one
   concatenated q*N one-shot run — modulo the single write charge
   (sessions pay allocation + writes once, so search_ops is the only
   counter that scales with N). Held across jobs values. *)
let test_split_vs_concatenated () =
  let q = 4 and n_batches = 4 and dims = 128 and classes = 10 in
  let total = q * n_batches in
  let data = hdc_data ~q:total ~dims ~classes () in
  let reference =
    Parallel.run ~jobs:1 @@ fun _ ->
    let c =
      C4cam.Driver.compile ~spec
        (Workloads.Kernels.hdc_dot ~q:total ~dims ~classes ~k:1)
    in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
  in
  let session_src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _pool ->
      let what = Printf.sprintf "jobs %d" jobs in
      let session = Session.create ~spec ~stored:data.stored session_src in
      (* one oversized batch: the session splits it into q-row
         chunks internally *)
      let r = Session.query session data.queries in
      Alcotest.(check Tutil.rows_testable)
        (what ^ ": values") reference.values r.values;
      Alcotest.(check Tutil.int_rows_testable)
        (what ^ ": indices") reference.indices r.indices;
      let a = reference.stats
      and b = Camsim.Simulator.stats (Session.simulator session) in
      let check_int name want got =
        Alcotest.(check int) (what ^ ": " ^ name) want got
      in
      check_int "query_cycles" a.n_query_cycles b.n_query_cycles;
      check_int "write_ops" a.n_write_ops b.n_write_ops;
      check_int "banks" a.n_banks b.n_banks;
      check_int "mats" a.n_mats b.n_mats;
      check_int "arrays" a.n_arrays b.n_arrays;
      check_int "subarrays" a.n_subarrays b.n_subarrays;
      check_int "kernel_binary" a.n_kernel_binary b.n_kernel_binary;
      check_int "kernel_nibble" a.n_kernel_nibble b.n_kernel_nibble;
      check_int "kernel_generic" a.n_kernel_generic b.n_kernel_generic;
      check_int "kernel_early_exit" a.n_kernel_early_exit
        b.n_kernel_early_exit;
      (* one search op per tile per chunk instead of per call *)
      check_int "search_ops" (n_batches * a.n_search_ops)
        b.n_search_ops;
      (* the write charge is identical, paid exactly once *)
      Tutil.check_float ~eps:0. (what ^ ": e_write") a.e_write
        b.e_write)
    [ 1; 4 ];
  (* batch-at-a-time serving agrees with the single split call *)
  let one_by_one =
    Parallel.run ~jobs:1 @@ fun _ ->
    let session = Session.create ~spec ~stored:data.stored session_src in
    Array.concat
      (List.init n_batches (fun i ->
           (Session.query session (Array.sub data.queries (i * q) q))
             .indices))
  in
  Alcotest.(check Tutil.int_rows_testable)
    "per-batch calls" reference.indices one_by_one

(* ---- write energy charged once, via the profile counters --------------- *)

let test_write_energy_once () =
  let q = 4 and dims = 128 and classes = 10 and n_batches = 8 in
  let data = hdc_data ~q:(q * n_batches) ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  (* what one batch costs end to end (its own fresh simulator) *)
  let oneshot =
    let c = C4cam.Driver.compile ~spec src in
    C4cam.Driver.run_cam c
      ~queries:(Array.sub data.queries 0 q)
      ~stored:data.stored
  in
  let collector = Instrument.Collect.create () in
  let config =
    C4cam.Driver.Run_config.(default |> with_profile collector)
  in
  Cache.clear ();
  let session = Session.create ~config ~spec ~stored:data.stored src in
  for i = 0 to n_batches - 1 do
    ignore (Session.query session (Array.sub data.queries (i * q) q))
  done;
  let p = Instrument.Collect.profile collector in
  (match p.serve with
  | None -> Alcotest.fail "expected a serve section in the profile"
  | Some s ->
      Alcotest.(check int) "batches" n_batches s.batches;
      Alcotest.(check int) "queries served" (q * n_batches)
        s.queries_served;
      Alcotest.(check bool) "first session misses the cache" false
        s.artifact_cache_hit;
      (* the whole point: 8 batches, one write charge *)
      Tutil.check_float ~eps:0. "write energy charged once"
        oneshot.stats.e_write s.serve_write_energy_j);
  (match p.sim with
  | None -> Alcotest.fail "expected a sim section in the profile"
  | Some s ->
      Alcotest.(check int) "write ops not repeated"
        oneshot.stats.n_write_ops s.write_ops;
      Alcotest.(check int) "devices allocated once"
        oneshot.stats.n_subarrays s.subarrays);
  (* a second session on the same (source, spec) skips the pipeline:
     its collector records no passes, and the serve section says hit *)
  let collector2 = Instrument.Collect.create () in
  let config2 =
    C4cam.Driver.Run_config.(default |> with_profile collector2)
  in
  let session2 = Session.create ~config:config2 ~spec ~stored:data.stored src in
  ignore (Session.query session2 (Array.sub data.queries 0 q));
  let p2 = Instrument.Collect.profile collector2 in
  Alcotest.(check int) "cache hit: no passes re-run" 0
    (List.length p2.passes);
  match p2.serve with
  | Some s -> Alcotest.(check bool) "cache hit reported" true
                s.artifact_cache_hit
  | None -> Alcotest.fail "expected a serve section"

(* ---- incremental stored updates ---------------------------------------- *)

let test_update_stored () =
  (* dims <= cols and classes <= rows, so the whole stored set is one
     tile: setup is exactly one write op, and replacing one row must
     cost exactly one more. *)
  let q = 2 and dims = 32 and classes = 4 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  Cache.clear ();
  let session = Session.create ~spec ~stored:data.stored src in
  ignore (Session.query session data.queries);
  let stats = Camsim.Simulator.stats (Session.simulator session) in
  Alcotest.(check int) "one-tile setup: one write op" 1 stats.n_write_ops;
  let replacement = Array.init dims (fun i -> float_of_int ((i + 1) mod 2)) in
  Session.update_stored session ~row:2 replacement;
  (* the next batch rewrites only the changed row *)
  let r = Session.query session data.queries in
  let stats = Camsim.Simulator.stats (Session.simulator session) in
  Alcotest.(check int) "one changed row, one extra write op" 2
    stats.n_write_ops;
  (* and serves results identical to a fresh run over the new rows *)
  let stored' = Array.copy data.stored in
  stored'.(2) <- replacement;
  let fresh =
    let c = C4cam.Driver.compile ~spec src in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:stored'
  in
  Alcotest.(check Tutil.rows_testable) "values after update" fresh.values
    r.values;
  Alcotest.(check Tutil.int_rows_testable) "indices after update"
    fresh.indices r.indices;
  (* rewriting identical rows is free *)
  Session.update_stored session ~row:2 replacement;
  ignore (Session.query session data.queries);
  let stats = Camsim.Simulator.stats (Session.simulator session) in
  Alcotest.(check int) "unchanged rows cost nothing" 2 stats.n_write_ops

(* ---- update_stored reclassification across jobs values -------------- *)

(* Replacing pinned rows with rows of a different kernel class (binary
   -> nibble, binary -> generic float) exercises the in-place flat-pack
   rewrite and class-summary maintenance under serve replay: every
   jobs value must serve byte-identical results to a fresh one-shot
   run over the updated rows. *)
let test_update_reclassification_matrix () =
  let q = 4 and dims = 64 and classes = 8 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let nibble_row = Array.init dims (fun i -> float_of_int (i mod 16)) in
  let float_row =
    Array.init dims (fun i -> 0.25 +. float_of_int (i mod 3))
  in
  let stored' = Array.copy data.stored in
  stored'.(1) <- nibble_row;
  stored'.(3) <- float_row;
  let reference =
    Parallel.run ~jobs:1 @@ fun _ ->
    let c = C4cam.Driver.compile ~spec src in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:stored'
  in
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _pool ->
      let what = Printf.sprintf "jobs %d" jobs in
      let session = Session.create ~spec ~stored:data.stored src in
      ignore (Session.query session data.queries);
      Session.update_stored session ~row:1 nibble_row;
      Session.update_stored session ~row:3 float_row;
      let r = Session.query session data.queries in
      Alcotest.(check Tutil.rows_testable)
        (what ^ ": values") reference.values r.values;
      Alcotest.(check Tutil.int_rows_testable)
        (what ^ ": indices") reference.indices r.indices)
    [ 1; 4 ]

(* ---- steady-state GC pressure ------------------------------------------ *)

(* The zero-allocation-hot-path contract: after the first (setup)
   batch, a binary-tier serving session runs in reused flat buffers
   and per-domain arenas, so its per-query minor-word rate stays an
   order of magnitude under the pre-flat baseline (~52k words/query).
   Measured at jobs = 1, where [Gc.minor_words] covers the whole
   dispatching domain deterministically. The bound is deliberately
   loose (2x the observed steady state) so it trips on a regression
   that re-grows per-batch allocation, not on compiler noise. *)
let test_steady_state_alloc () =
  Parallel.run ~jobs:1 @@ fun _pool ->
  let q = 8 and dims = 256 and classes = 10 and n_batches = 6 in
  let data = hdc_data ~q:(q * n_batches) ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let session = Session.create ~spec ~stored:data.stored src in
  for i = 0 to n_batches - 1 do
    ignore (Session.query session (Array.sub data.queries (i * q) q))
  done;
  let st = Session.stats session in
  Alcotest.(check bool) "counter engaged" true
    (st.alloc_minor_words_per_query > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "steady-state alloc bounded (%.0f words/query)"
       st.alloc_minor_words_per_query)
    true
    (st.alloc_minor_words_per_query < 1500.)

(* ---- the compiled-artifact cache --------------------------------------- *)

let test_artifact_cache () =
  let q = 2 and dims = 32 and classes = 4 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  Cache.clear ();
  Alcotest.(check int) "cache empty" 0 (Cache.length ());
  let a = Session.create ~spec ~stored:data.stored src in
  Alcotest.(check bool) "first create misses" true
    (Session.cache_status a = `Miss);
  let b = Session.create ~spec ~stored:data.stored src in
  Alcotest.(check bool) "second create hits" true
    (Session.cache_status b = `Hit);
  Alcotest.(check int) "one artifact cached" 1 (Cache.length ());
  (* the hit returns the very artifact the miss inserted *)
  Alcotest.(check bool) "same compiled artifact" true
    (Session.compiled a == Session.compiled b);
  (* a different spec is a different key *)
  let spec16 = Archspec.Spec.square 16 Archspec.Spec.Base in
  let c = Session.create ~spec:spec16 ~stored:data.stored src in
  Alcotest.(check bool) "different spec misses" true
    (Session.cache_status c = `Miss);
  Alcotest.(check int) "two artifacts cached" 2 (Cache.length ());
  (* both sessions serve (shared artifact, private simulators) *)
  let ra = Session.query a data.queries and rb = Session.query b data.queries in
  Alcotest.(check Tutil.int_rows_testable) "shared artifact serves"
    ra.indices rb.indices

(* ---- the cache under a thundering herd ---------------------------------- *)

(* N domains race [Session.create] on the same (source, spec): the
   single-flight cache must run the pipeline exactly once, and every
   session must hold the very same artifact. *)
let test_artifact_cache_race () =
  let q = 2 and dims = 32 and classes = 4 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  Cache.clear ();
  let before = Cache.compiles () in
  let n = 8 in
  let gate = Atomic.make 0 in
  let racers =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            (* line the domains up so the lookups genuinely collide *)
            Atomic.incr gate;
            while Atomic.get gate < n do
              Domain.cpu_relax ()
            done;
            Session.create ~spec ~stored:data.stored src))
  in
  let sessions = List.map Domain.join racers in
  Alcotest.(check int) "pipeline ran exactly once" 1
    (Cache.compiles () - before);
  Alcotest.(check int) "one artifact cached" 1 (Cache.length ());
  let first = Session.compiled (List.hd sessions) in
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d shares the artifact" i)
        true
        (Session.compiled s == first))
    sessions;
  (* every racer serves, and they agree *)
  let r0 = Session.query (List.hd sessions) data.queries in
  List.iter
    (fun s ->
      let r = Session.query s data.queries in
      Alcotest.(check Tutil.int_rows_testable) "racers agree" r0.indices
        r.indices)
    (List.tl sessions)

(* ---- ragged batches ----------------------------------------------------- *)

(* Every batch size from 1 to 2q - 1, against a brute-force host top-k:
   batches of r <= q rows run one r-row chunk, larger ones a full chunk
   and a tail. One long-lived session serves every size in turn, so
   the r-row kernels replay the device setup the q-row kernel
   recorded; a fresh session per size starts with the short chunk, so
   the r-row kernel records the setup the q-row kernel then replays,
   and the charge for it is the full-batch-first session's. *)
let test_ragged_vs_host_topk () =
  let q = 4 and dims = 64 and classes = 8 and k = 3 in
  let data = hdc_data ~q:(2 * q) ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k in
  let check what batch (r : C4cam.Driver.run_result) =
    let values, indices = Tutil.host_topk ~k ~stored:data.stored batch in
    Alcotest.(check Tutil.rows_testable) (what ^ ": values") values r.values;
    Alcotest.(check Tutil.int_rows_testable)
      (what ^ ": indices") indices r.indices
  in
  let setup s =
    let st = Camsim.Simulator.stats (Session.simulator s) in
    (st.n_write_ops, st.e_write, st.e_overhead, st.n_subarrays)
  in
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _ ->
      let long = Session.create ~spec ~stored:data.stored src in
      let sizes = List.init ((2 * q) - 1) (fun i -> i + 1) in
      List.iter
        (fun rows ->
          let batch = Array.sub data.queries ((2 * q) - rows) rows in
          let what = Printf.sprintf "jobs %d, %d rows" jobs rows in
          check what batch (Session.query long batch);
          let fresh = Session.create ~spec ~stored:data.stored src in
          check (what ^ ", fresh") batch (Session.query fresh batch);
          check (what ^ ", fresh, full batch next")
            (Array.sub data.queries 0 q)
            (Session.query fresh (Array.sub data.queries 0 q));
          Alcotest.(check bool)
            (what ^ ": setup charged as the q-row kernel's")
            true
            (setup fresh = setup long))
        (sizes @ List.rev sizes))
    [ 1; 4 ]

(* A warm r-row chunk costs the q-row kernel's rules at [queries = r]:
   per tile one search of r rows and one merge of r x tile_rows
   elements, then one select of r rows; a batch of more than q rows
   adds its chunks. The kernel has 2 x 2 tiles of 32 rows on the 32x32
   base spec (64 stored rows of 64 dims), all searched in parallel. *)
let test_ragged_ledger () =
  let q = 4 and dims = 64 and classes = 64 and k = 1 in
  let data = hdc_data ~q:(2 * q) ~dims ~classes () in
  let session =
    Session.create ~spec ~stored:data.stored
      (Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k)
  in
  (* the first batch records the device setup *)
  ignore (Session.query session (Array.sub data.queries 0 q));
  for rows = 1 to (2 * q) - 1 do
    let r = Session.query session (Array.sub data.queries 0 rows) in
    let latency, energy =
      List.fold_left
        (fun (l, e) r ->
          let l', e' =
            Tutil.warm_chunk_cost ~spec ~tiles:4 ~tile_rows:32 ~n:classes ~k
              r
          in
          (l +. l', e +. e'))
        (0., 0.)
        (Tutil.chunk_sizes ~q rows)
    in
    let what = Printf.sprintf "%d rows" rows in
    Tutil.check_float ~eps:1e-12 (what ^ ": latency") latency r.latency;
    Tutil.check_float ~eps:1e-12 (what ^ ": energy") energy r.energy
  done

(* ---- rejected batches --------------------------------------------------- *)

let test_bad_batch () =
  let q = 4 and dims = 32 and classes = 4 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let session = Session.create ~spec ~stored:data.stored src in
  let rejects what batch =
    match Session.query session batch with
    | _ -> Alcotest.failf "%s: expected Serve_error" what
    | exception Session.Serve_error _ -> ()
  in
  rejects "empty" [||];
  (* a short batch is served, through the kernel lowered for its rows,
     and answers what the same rows answer inside a full batch *)
  let short = Session.query session (Array.sub data.queries 0 3) in
  let full = Session.query session data.queries in
  Alcotest.(check Tutil.int_rows_testable) "short batch served"
    (Array.sub full.indices 0 3) short.indices;
  (* one bad row in an otherwise good batch refuses the whole batch
     before any device work *)
  let with_row i row =
    let b = Array.copy data.queries in
    b.(i) <- row;
    b
  in
  let with_cell v =
    let r = Array.copy data.queries.(1) in
    r.(7) <- v;
    r
  in
  let searches () =
    (Camsim.Simulator.stats (Session.simulator session)).n_search_ops
  in
  let before = searches () in
  rejects "nan cell" (with_row 1 (with_cell Float.nan));
  rejects "inf cell" (with_row 1 (with_cell Float.infinity));
  rejects "short row" (with_row 2 (Array.make (dims - 1) 0.));
  rejects "long row" (with_row 3 (Array.make (dims + 1) 0.));
  Alcotest.(check int) "no device work for refused batches" before
    (searches ());
  (* the session still serves *)
  ignore (Session.query session data.queries);
  (match Session.update_stored session ~row:0 (with_cell Float.nan) with
  | () -> Alcotest.fail "nan stored row: expected Serve_error"
  | exception Session.Serve_error _ -> ());
  match
    Session.create ~spec ~stored:(Array.sub data.stored 0 2) src with
  | _ -> Alcotest.fail "wrong stored row count: expected Serve_error"
  | exception Session.Serve_error _ -> ()

(* ---- the scoped kernel cap (satellite of the same API pass) ------------ *)

let test_with_kernel_cap_scoped () =
  let rows = 8 and cols = 32 in
  let rng = Rng.create 5151 in
  let s = Camsim.Subarray.create ~rows ~cols ~bits:1 in
  Camsim.Subarray.write s
    (Array.init rows (fun _ ->
         Array.init cols (fun _ -> float_of_int (Rng.int rng 2))));
  let queries =
    [| Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) |]
  in
  let dispatched_generic () =
    let stats = Camsim.Stats.create () in
    ignore
      (Camsim.Subarray.search ~stats s ~queries ~row_offset:0 ~rows
         ~metric:`Hamming);
    stats.n_kernel_generic > 0
  in
  Alcotest.(check bool) "binary tier by default" false
    (dispatched_generic ());
  Alcotest.(check bool) "generic inside the scope" true
    (Camsim.Subarray.with_kernel_cap s `Generic dispatched_generic);
  Alcotest.(check bool) "restored after the scope" false
    (dispatched_generic ());
  (* restored even when the body raises *)
  (try
     Camsim.Subarray.with_kernel_cap s `Generic (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after an exception" false
    (dispatched_generic ())

(* ---- result buffers handed back for reuse ------------------------------ *)

(* A scores-form session's output buffer, released after a flat query,
   is the one the next batch writes — zeroed first, so results equal a
   fresh session's — while one never released is not reused, and a
   value the pool did not lend is ignored by [release]. *)
let test_output_reuse () =
  (* square, so the stored buffer has the output's shape *)
  let q = 32 and dims = 32 and classes = 32 in
  let data = hdc_data ~q:(3 * q) ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot_scores ~q ~dims ~classes in
  let batch i = Array.sub data.queries (i * q) q in
  let session = Session.create ~spec ~stored:data.stored src in
  let fresh = Session.create ~spec ~stored:data.stored src in
  let store (f : Session.flat) =
    match f.outputs with
    | [ [ Interp.Rtval.Buffer b ] ] -> b.b_data
    | _ -> Alcotest.fail "expected one score buffer"
  in
  let f0 = Session.query_flat session (batch 0) in
  let f1 = Session.query_flat session (batch 1) in
  Alcotest.(check bool) "held outputs are not reused" false
    (store f0 == store f1);
  Session.release session f1;
  (* the pinned stored buffer was never lent: handing it back must not
     get it zeroed and reused *)
  Session.release session
    { f1 with outputs = [ [ Session.stored_value session ] ] };
  let f2 = Session.query_flat session (batch 2) in
  Alcotest.(check bool) "released output reused" true (store f1 == store f2);
  let want = Session.query fresh (batch 2) in
  Alcotest.(check Tutil.rows_testable) "reused buffer holds fresh scores"
    (Option.get want.scores)
    (Array.init q (fun i -> Array.sub (store f2) (i * classes) classes));
  Session.release session f2;
  let again = Session.query session (batch 2) in
  Alcotest.(check Tutil.rows_testable) "stored rows untouched"
    (Option.get want.scores) (Option.get again.scores)

(* ---- the replay write ledger against an independent model ------------- *)

(* After every query, the write ops and write energy a replay charged
   must be what the test's own copy of the rows predicts: per tile
   window, one write of [len] rows for each maximal run of [len] rows
   whose cells in that window changed since the device last saw them.
   The model knows only the tile geometry (spec-sized row tiles,
   column chunks of at most [cols]) and [Energy_model.write]; a range
   write programs two bound planes, so each of its runs costs two. *)

type ledger_update =
  | Fresh of int * float array  (** replace the row *)
  | Same of int  (** rewrite the row's current contents *)
  | Flip of int * int  (** flip one cell *)
  | Twice of int * float array * float array  (** two writes, one batch *)

type ledger_case = {
  ld : int;
      (** stored row width: one, two or three 32-column chunks (the
          partition pass rejects a width that is not a multiple of the
          columns, so narrower rows are the box table's case: 5 bounds
          on a 32-column subarray) *)
  steps : ledger_update list list;  (** the updates before each query *)
  box_shards : int;
  box_steps : (int * float array * float array) option list list;
      (** per query, box updates; [None] rewrites box 0 unchanged *)
}

let ledger_n = 64 and ledger_q = 2 and ledger_boxes = 12
and ledger_bdims = 5

let gen_ledger =
  let open QCheck.Gen in
  let* ld = oneofl [ 32; 64; 96 ] in
  let bits = array_size (return ld) (oneofl [ 0.; 1. ]) in
  let row = int_bound (ledger_n - 1) in
  let update =
    frequency
      [
        (3, map2 (fun r b -> Fresh (r, b)) row bits);
        (1, map (fun r -> Same r) row);
        (2, map2 (fun r j -> Flip (r, j)) row (int_bound (ld - 1)));
        ( 1,
          let* r = row and* a = bits and* b = bits in
          return (Twice (r, a, b)) );
      ]
  in
  let* steps = list_size (int_range 1 5) (list_size (int_range 0 4) update) in
  let grid = map (fun i -> float_of_int i /. 4.) (int_range 0 4) in
  let point = array_size (return ledger_bdims) grid in
  let box_update =
    frequency
      [
        ( 3,
          let* i = int_bound (ledger_boxes - 1) and* a = point and* b = point in
          return (Some (i, Array.map2 Float.min a b, Array.map2 Float.max a b))
        );
        (1, return None);
      ]
  in
  let* box_shards = int_range 1 3 in
  let* box_steps =
    list_size (int_range 1 4) (list_size (int_range 0 3) box_update)
  in
  return { ld; steps; box_shards; box_steps }

let print_ledger c =
  Printf.sprintf "d=%d, %d session steps, %d box steps over %d shards" c.ld
    (List.length c.steps) (List.length c.box_steps) c.box_shards

(* Maximal runs of rows in [lo, hi) for which [changed] holds. *)
let runs ~lo ~hi changed =
  let rec go i acc cur =
    if i = hi then List.rev (if cur > 0 then cur :: acc else acc)
    else if changed i then go (i + 1) acc (cur + 1)
    else go (i + 1) (if cur > 0 then cur :: acc else acc) 0
  in
  go lo [] 0

let write_energy ~(spec : Archspec.Spec.t) len =
  (Camsim.Energy_model.write Camsim.Tech.fefet_45nm ~bits:spec.bits
     ~cols:spec.cols ~rows:len)
    .Camsim.Energy_model.energy

(* The write ledger of a device: (write ops, write energy). *)
let ledger (s : Camsim.Stats.t) = (s.n_write_ops, s.e_write)

let check_ledger what ~before:(ops0, e0) ~after:(ops1, e1) lens ~energy =
  if ops1 - ops0 <> List.length lens then
    QCheck.Test.fail_reportf "%s: %d write ops, model %d" what (ops1 - ops0)
      (List.length lens);
  let e = e1 -. e0 in
  if Float.abs (e -. energy) > 1e-9 *. Float.abs energy then
    QCheck.Test.fail_reportf "%s: write energy %g, model %g" what e energy

let ledger_sessions c =
  let d = c.ld and n = ledger_n and spec = Tutil.spec32 in
  let data = hdc_data ~q:ledger_q ~dims:d ~classes:n () in
  let src = Workloads.Kernels.hdc_dot ~q:ledger_q ~dims:d ~classes:n ~k:1 in
  let session = Session.create ~spec ~stored:data.stored src in
  let rows = Array.map Array.copy data.stored in
  (* what the device holds; nan until the first (recorded) write *)
  let device = Array.make_matrix n d nan in
  let windows =
    List.concat_map
      (fun r0 ->
        List.map
          (fun c0 -> (r0, c0, min spec.cols (d - c0)))
          (List.init ((d + spec.cols - 1) / spec.cols) (fun c ->
               c * spec.cols)))
      (List.init (n / spec.rows) (fun r -> r * spec.rows))
  in
  let set r v =
    rows.(r) <- Array.copy v;
    Session.update_stored session ~row:r v
  in
  let apply = function
    | Fresh (r, b) -> set r b
    | Same r -> set r rows.(r)
    | Flip (r, j) ->
        let v = Array.copy rows.(r) in
        v.(j) <- 1. -. v.(j);
        set r v
    | Twice (r, a, b) ->
        set r a;
        set r b
  in
  let stats () = ledger (Camsim.Simulator.stats (Session.simulator session)) in
  List.iteri
    (fun step updates ->
      List.iter apply updates;
      let lens =
        List.concat_map
          (fun (r0, c0, w) ->
            runs ~lo:r0 ~hi:(r0 + spec.rows) (fun i ->
                let rec differs j =
                  j < c0 + w
                  && (rows.(i).(j) <> device.(i).(j) || differs (j + 1))
                in
                differs c0))
          windows
      in
      let before = stats () in
      ignore (Session.query session data.queries);
      check_ledger
        (Printf.sprintf "d=%d step %d" d step)
        ~before ~after:(stats ()) lens
        ~energy:
          (List.fold_left (fun a len -> a +. write_energy ~spec len) 0. lens);
      Array.iteri (fun i r -> device.(i) <- Array.copy r) rows)
    ([] :: c.steps)

let ledger_boxes c =
  let g = Rng.create 5 in
  let pt () =
    Array.init ledger_bdims (fun _ -> float_of_int (Rng.int g 5) /. 4.)
  in
  let lo = Array.init ledger_boxes (fun _ -> pt ()) in
  let hi = Array.map (Array.map (fun v -> v +. 0.25)) lo in
  let store =
    Serve.Range_store.create ~shards:c.box_shards ~q:ledger_q
      ~lo:(Array.map Array.copy lo) ~hi:(Array.map Array.copy hi) ()
  in
  let queries = Array.init ledger_q (fun _ -> pt ()) in
  let dev_lo = Array.make_matrix ledger_boxes ledger_bdims nan in
  let dev_hi = Array.make_matrix ledger_boxes ledger_bdims nan in
  (* contiguous slices, the first [boxes mod shards] one box longer;
     each shard's subarray is at least 32 x 32 *)
  let base = ledger_boxes / c.box_shards
  and rem = ledger_boxes mod c.box_shards in
  let slices =
    List.init c.box_shards (fun s ->
        (s * base + min s rem, base + if s < rem then 1 else 0))
  in
  let spec = Tutil.spec32 in
  List.iteri
    (fun step updates ->
      List.iter
        (fun u ->
          let i, l, h =
            match u with Some b -> b | None -> (0, lo.(0), hi.(0))
          in
          lo.(i) <- Array.copy l;
          hi.(i) <- Array.copy h;
          Serve.Range_store.update_box store ~row:i ~lo:l ~hi:h)
        updates;
      let lens =
        List.concat_map
          (fun (off, len) ->
            runs ~lo:off ~hi:(off + len) (fun i ->
                lo.(i) <> dev_lo.(i) || hi.(i) <> dev_hi.(i)))
          slices
      in
      let before = ledger (Serve.Range_store.device_stats store) in
      ignore (Serve.Range_store.query store queries);
      check_ledger
        (Printf.sprintf "boxes step %d" step)
        ~before
        ~after:(ledger (Serve.Range_store.device_stats store))
        lens
        ~energy:
          (List.fold_left
             (fun a len -> a +. (2. *. write_energy ~spec len))
             0. lens);
      Array.iteri (fun i r -> dev_lo.(i) <- Array.copy r) lo;
      Array.iteri (fun i r -> dev_hi.(i) <- Array.copy r) hi)
    ([] :: c.box_steps)

let prop_write_ledger =
  QCheck.Test.make ~count:30 ~name:"replay write ledger vs row model"
    (QCheck.make ~print:print_ledger gen_ledger)
    (fun c ->
      ledger_sessions c;
      ledger_boxes c;
      true)

let () =
  Alcotest.run "serve"
    [
      ( "sessions",
        [
          Alcotest.test_case "split vs concatenated differential" `Quick
            test_split_vs_concatenated;
          Alcotest.test_case "write energy charged once" `Quick
            test_write_energy_once;
          Alcotest.test_case "update_stored" `Quick test_update_stored;
          Alcotest.test_case "update_stored reclassification matrix"
            `Quick test_update_reclassification_matrix;
          Alcotest.test_case "steady-state GC pressure" `Quick
            test_steady_state_alloc;
          Alcotest.test_case "artifact cache" `Quick test_artifact_cache;
          Alcotest.test_case "artifact cache under a thundering herd"
            `Quick test_artifact_cache_race;
          Alcotest.test_case "bad batches rejected" `Quick test_bad_batch;
          Alcotest.test_case "ragged batches vs host top-k" `Quick
            test_ragged_vs_host_topk;
          Alcotest.test_case "ragged chunk ledger in closed form" `Quick
            test_ragged_ledger;
          Alcotest.test_case "released outputs reused" `Quick
            test_output_reuse;
        ] );
      ("ledger", [ QCheck_alcotest.to_alcotest prop_write_ledger ]);
      ( "kernel cap",
        [
          Alcotest.test_case "with_kernel_cap is scoped" `Quick
            test_with_kernel_cap_scoped;
        ] );
    ]
