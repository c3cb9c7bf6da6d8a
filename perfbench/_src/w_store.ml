(* store-32k: Serve.Sharded_store with 32,768 binary rows of 64 cells on
   64x64 subarrays, 4 shards, top-3, queried in 8-query batches.  Each
   batch is preceded by an update, and a delete plus an insert that
   reuses the freed slot, so writes run beside the reads.  This is the
   camsim kernel / interpreted tile nest / top-k merge path. *)

open Bench
module S = Serve.Sharded_store

let rows = 32768
let dims = 64
let shards = 4
let k = 3
let q = 8
let noise = 4 (* cells flipped in a query relative to its source row *)
let spec = Archspec.Spec.square 64 Archspec.Spec.Base
let max_cycles = 200_000
let exact_cycles = 16
let round_cycles = 16

(* The input stream and the oracle's live-row model advance together: a
   cycle is drawn from the model's current live set and applied to it
   before the store sees it. *)
type gen = {
  g : Prng.t;
  model : Oracle.Store.t;
  live : int array;  (* position -> live external id *)
  mutable next_id : int;
}

type cycle = {
  upd_id : int;
  upd_row : float array;
  del_id : int;
  ins_row : float array;
  ins_id : int;  (* the id the store must return *)
  batch : float array array;
  qbits : Oracle.bits array;
  labels : int array;  (* the source row of each query *)
}

let random_bits g = Oracle.bits_of_int64 (Prng.bits64 g)

(* a live row with [noise] distinct cells flipped, and its source id *)
let noisy_query gen =
  let src = gen.live.(Prng.int gen.g rows) in
  let b = Oracle.Store.get gen.model src in
  let flipped = ref [] and lo = ref b.Oracle.lo and hi = ref b.Oracle.hi in
  while List.length !flipped < noise do
    let j = Prng.int gen.g dims in
    if not (List.mem j !flipped) then begin
      flipped := j :: !flipped;
      if j < 32 then lo := !lo lxor (1 lsl j) else hi := !hi lxor (1 lsl (j - 32))
    end
  done;
  ({ Oracle.lo = !lo; hi = !hi }, src)

let batch gen =
  let qs = Array.init q (fun _ -> noisy_query gen) in
  let qbits = Array.map fst qs in
  (Array.map Oracle.row_of_bits qbits, qbits, Array.map snd qs)

let next_cycle gen =
  let g = gen.g in
  let m = gen.model in
  let upd_id = gen.live.(Prng.int g rows) in
  let ub = random_bits g in
  Oracle.Store.set m upd_id ub;
  let p = Prng.int g rows in
  let del_id = gen.live.(p) in
  Oracle.Store.kill m del_id;
  let ins_id = gen.next_id in
  if ins_id >= max_cycles + rows then failwith "store-32k: input stream exhausted";
  gen.next_id <- ins_id + 1;
  let ib = random_bits g in
  Oracle.Store.set m ins_id ib;
  gen.live.(p) <- ins_id;
  let batch, qbits, labels = batch gen in
  {
    upd_id;
    upd_row = Oracle.row_of_bits ub;
    del_id;
    ins_row = Oracle.row_of_bits ib;
    ins_id;
    batch;
    qbits;
    labels;
  }

(* [true] when every query row's ids and distances equal the model's
   brute-force (distance, id) top-k; counts top-1 hits on the labels *)
let check gen (r : S.result) qbits labels hits =
  let want_d, want_id = Oracle.Store.top gen.model ~k ~upto:gen.next_id qbits in
  Array.length r.S.indices = q
  && Array.for_all Fun.id
       (Array.mapi
          (fun j (ids : int array) ->
            if ids.(0) = labels.(j) then incr hits;
            ids = want_id.(j) && r.S.values.(j) = Array.map float_of_int want_d.(j))
          r.S.indices)

type step = {
  busy : float;
  qlat : float;
  words : float;  (* minor words allocated by the query call *)
  result : S.result option;
}

(* One cycle's four calls, each timed, then its checks (untimed). *)
let exec gen st (tl : tally) hits c =
  let t0 = now () in
  let u = call "serve.update" (fun () -> S.update st c.upd_id c.upd_row) in
  let d = call "serve.delete" (fun () -> S.delete st c.del_id) in
  let i = call "serve.insert" (fun () -> S.insert st c.ins_row) in
  let t1 = now () in
  let r = call "serve.query" (fun () -> with_words (fun () -> S.query st c.batch)) in
  let t2 = now () in
  record tl (u <> None);
  record tl (d <> None);
  record tl (i = Some c.ins_id);
  let result = Option.map fst r in
  record tl
    (match result with Some res -> check gen res c.qbits c.labels hits | None -> false);
  {
    busy = t2 -. t0;
    qlat = t2 -. t1;
    words = (match r with Some (_, w) -> w | None -> nan);
    result;
  }

let session_ops (st : S.t) =
  List.fold_left (fun a (_, n) -> a + n) 0 (S.stats st).S.session.Serve.Session.ops_executed

let run ctx =
  let g = Prng.make ctx.seed in
  let gen =
    {
      g;
      model = Oracle.Store.create (rows + max_cycles);
      live = Array.init rows Fun.id;
      next_id = rows;
    }
  in
  let init_rows =
    Array.init rows (fun id ->
        let b = random_bits g in
        Oracle.Store.set gen.model id b;
        Oracle.row_of_bits b)
  in
  let first, first_bits, first_labels = batch gen in
  let tl = tally () and hits = ref 0 and queried = ref 0 in
  let store = ref None in
  (* set-up: create, load every row, serve the first batch *)
  let setup () =
    let t0 = now () in
    let st = S.create ~spec ~q ~d:dims ~k ~shards ~capacity:rows () in
    let ids = Array.map (S.insert st) init_rows in
    let r = S.query st first in
    let t = now () -. t0 in
    store := Some st;
    record tl (ids = Array.init rows Fun.id && check gen r first_bits first_labels (ref 0));
    t
  in
  let drop () = store := None in
  let compiles0 = Serve.Artifact_cache.compiles () in
  let setup_s, setup_layers =
    if not ctx.trace then (setup_time ctx ~n:7 ~drop setup, [])
    else begin
      (* the traced set-up compiles the store's kernel from outside first
         (the store then hits the artifact cache), so the frontend and
         the pass pipeline get spans of their own *)
      let source = Workloads.Kernels.hdc_dot_scores ~q ~dims ~classes:(rows / shards) in
      let traced () =
        ignore (Span.with_ "frontend.parse" (fun () -> Frontend.Emit.compile_string source));
        ignore
          (Span.with_ "passes.compile" (fun () -> Serve.Artifact_cache.lookup ~spec source));
        setup ()
      in
      Span.on := true;
      let s = setup_time ctx ~n:3 ~drop traced in
      Span.on := false;
      let tbl = Span.self_times () in
      let ms n = 1e3 *. Span.mean_self tbl n in
      ( s,
        [
          ("frontend.parse_ms", ms "frontend.parse");
          ("passes.compile_ms", ms "passes.compile" -. ms "frontend.parse");
          ("passes.compiles", float_of_int (Serve.Artifact_cache.compiles () - compiles0) /. 3.);
        ] )
    end
  in
  let st = Option.get !store in
  (* exact window: the first cycles after set-up, untimed, read the
     deterministic counters and simulated figures *)
  let ds0 = S.device_stats st and ops0 = session_ops st in
  let words = ref 0. and energy = ref 0. and latency = ref 0. in
  for _ = 1 to exact_cycles do
    let s = exec gen st tl hits (next_cycle gen) in
    words := !words +. s.words;
    Option.iter
      (fun (r : S.result) ->
        energy := !energy +. r.S.energy;
        latency := !latency +. r.S.latency)
      s.result
  done;
  let ds1 = S.device_stats st and ops1 = session_ops st in
  let nq = float_of_int (exact_cycles * q) in
  let per_q f = float_of_int (f ds1 - f ds0) /. nq in
  let body () =
    let busy = ref 0. and lat = Array.make round_cycles 0. in
    for i = 0 to round_cycles - 1 do
      let s = exec gen st tl hits (next_cycle gen) in
      queried := !queried + q;
      busy := !busy +. s.busy;
      lat.(i) <- s.qlat
    done;
    (4 * round_cycles, !busy, lat)
  in
  hits := 0;
  let stats0 = S.stats st in
  let kept, plain = measure ctx ~warmup:2 body in
  let stats1 = S.stats st in
  let common = round_metrics ctx kept @ latency_metrics ctx kept in
  let layers =
    if not ctx.trace then []
    else begin
      let tbl = Span.self_times () in
      let f = factor ctx (median_of (List.map (fun r -> r.calib) kept)) in
      let mean_ms n = 1e3 *. f *. Span.mean_self tbl n in
      let batches =
        float_of_int
          (stats1.S.session.Serve.Session.batches - stats0.S.session.Serve.Session.batches)
      in
      let floor = Probe.binary_ns_per_pair ctx in
      let query_ns_per_pair = 1e6 *. mean_ms "serve.query" /. float_of_int (q * rows) in
      setup_layers
      @ trace_metrics ctx ~traced:kept ~plain
          ~layers:[ "serve.update"; "serve.delete"; "serve.insert"; "serve.query" ]
      @ [
          ("interp.ops_per_query", float_of_int (ops1 - ops0) /. nq);
          ("camsim.floor_ns_per_pair", floor);
          ("camsim.gap_to_floor", query_ns_per_pair /. floor);
          ("camsim.search_ops_per_query", per_q (fun s -> s.Camsim.Stats.n_search_ops));
          ("camsim.kernel_binary_per_query", per_q (fun s -> s.Camsim.Stats.n_kernel_binary));
          ("camsim.kernel_nibble_per_query", per_q (fun s -> s.Camsim.Stats.n_kernel_nibble));
          ("camsim.kernel_generic_per_query",
           per_q (fun s -> s.Camsim.Stats.n_kernel_generic));
          ("serve.query_ms", mean_ms "serve.query");
          ("serve.fanout_ms",
           1e3 *. f *. (stats1.S.fanout_wall_s -. stats0.S.fanout_wall_s) /. batches);
          ("serve.merge_ms",
           1e3 *. f *. (stats1.S.merge_wall_s -. stats0.S.merge_wall_s) /. batches);
          ("serve.insert_us", 1e3 *. mean_ms "serve.insert");
          ("serve.delete_us", 1e3 *. mean_ms "serve.delete");
          ("serve.update_us", 1e3 *. mean_ms "serve.update");
          ("serve.alloc_words_per_query", !words /. nq);
          ("serve.write_ops_per_batch",
           float_of_int (ds1.Camsim.Stats.n_write_ops - ds0.Camsim.Stats.n_write_ops)
           /. float_of_int exact_cycles);
        ]
    end
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("peak_rss_mb", !fixed_peak_rss);
      ("success_rate", success_rate tl);
      ("accuracy", float_of_int !hits /. float_of_int (max 1 !queried));
      ("sim_energy_per_query_j", !energy /. nq);
      ("sim_latency_per_query_s", !latency /. nq);
    ]
  in
  { tally = tl; correct = tl.failed = 0; metrics = e2e @ common @ layers }
