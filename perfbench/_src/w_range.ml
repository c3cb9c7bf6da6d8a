(* range-acam: Serve.Range_store with 4,096 boxes of 16 dims over 4
   shards, served in 8-query batches, each preceded by an update_box to
   fresh bounds.  This is the ACAM range path and the store's own
   sharding layer, which no other workload runs. *)

open Bench
module R = Serve.Range_store

let boxes = 4096
let dims = 16
let shards = 4
let q = 8
let inside = 0.7 (* share of queries drawn inside a box; the rest are anomalies *)
let exact_cycles = 16
let round_cycles = 32

let random_box g =
  let lo = Array.make dims 0. and hi = Array.make dims 0. in
  for j = 0 to dims - 1 do
    let c = 0.15 +. (0.7 *. Prng.float g) and w = 0.05 +. (0.15 *. Prng.float g) in
    lo.(j) <- c -. w;
    hi.(j) <- c +. w
  done;
  (lo, hi)

(* a query and its label: a point inside a random current box (label =
   that box), or a uniform point of the unit cube (label = -1) *)
let query g (model : Oracle.Boxes.t) =
  if Prng.float g < inside then begin
    let b = Prng.int g boxes in
    let lo = model.Oracle.Boxes.lo.(b) and hi = model.Oracle.Boxes.hi.(b) in
    (Array.init dims (fun j -> lo.(j) +. ((hi.(j) -. lo.(j)) *. Prng.float g)), b)
  end
  else (Array.init dims (fun _ -> Prng.float g), -1)

type cycle = {
  row : int;
  lo : float array;
  hi : float array;
  batch : float array array;
  labels : int array;
}

let batch g model =
  let qs = Array.init q (fun _ -> query g model) in
  (Array.map fst qs, Array.map snd qs)

let next_cycle g model =
  let row = Prng.int g boxes in
  let lo, hi = random_box g in
  Oracle.Boxes.set model row lo hi;
  let batch, labels = batch g model in
  { row; lo; hi; batch; labels }

(* matches, best counts and best ids all equal the box model's *)
let check model (r : R.result) batch labels hits =
  Array.length r.R.matches = q
  && Array.for_all Fun.id
       (Array.mapi
          (fun j x ->
            let v, id = Oracle.Boxes.best model x in
            if r.R.matches.(j) = labels.(j) then incr hits;
            r.R.matches.(j) = (if v = 0 then id else -1)
            && r.R.values.(j) = [| float_of_int v |]
            && r.R.indices.(j) = [| id |])
          batch)

type step = { busy : float; qlat : float; words : float; result : R.result option }

let exec model st tl hits c =
  let t0 = now () in
  let u = call "serve.update_box" (fun () -> R.update_box st ~row:c.row ~lo:c.lo ~hi:c.hi) in
  let t1 = now () in
  let r = call "serve.query" (fun () -> with_words (fun () -> R.query st c.batch)) in
  let t2 = now () in
  record tl (u <> None);
  let result = Option.map fst r in
  record tl
    (match result with Some res -> check model res c.batch c.labels hits | None -> false);
  {
    busy = t2 -. t0;
    qlat = t2 -. t1;
    words = (match r with Some (_, w) -> w | None -> nan);
    result;
  }

let session_ops st =
  List.fold_left (fun a (_, n) -> a + n) 0 (R.stats st).Serve.Session.ops_executed

let run ctx =
  let g = Prng.make ctx.seed in
  let init = Array.init boxes (fun _ -> random_box g) in
  let lo = Array.map fst init and hi = Array.map snd init in
  let model = Oracle.Boxes.copy lo hi in
  let first, first_labels = batch g model in
  let tl = tally () and hits = ref 0 and queried = ref 0 in
  let store = ref None in
  let setup () =
    let t0 = now () in
    let st = R.create ~shards ~q ~lo ~hi () in
    let r = R.query st first in
    let t = now () -. t0 in
    store := Some st;
    record tl (check model r first first_labels (ref 0));
    t
  in
  let setup_s = setup_time ctx ~n:7 ~drop:(fun () -> store := None) setup in
  let st = Option.get !store in
  let ds0 = R.device_stats st and ops0 = session_ops st in
  let words = ref 0. and energy = ref 0. and latency = ref 0. in
  for _ = 1 to exact_cycles do
    let s = exec model st tl hits (next_cycle g model) in
    words := !words +. s.words;
    Option.iter
      (fun (r : R.result) ->
        energy := !energy +. r.R.energy;
        latency := !latency +. r.R.latency)
      s.result
  done;
  let ds1 = R.device_stats st and ops1 = session_ops st in
  let nq = float_of_int (exact_cycles * q) in
  let per_q f = float_of_int (f ds1 - f ds0) /. nq in
  let body () =
    let busy = ref 0. and lat = Array.make round_cycles 0. in
    for i = 0 to round_cycles - 1 do
      let s = exec model st tl hits (next_cycle g model) in
      queried := !queried + q;
      busy := !busy +. s.busy;
      lat.(i) <- s.qlat
    done;
    (2 * round_cycles, !busy, lat)
  in
  hits := 0;
  let kept, plain = measure ctx ~warmup:2 body in
  let layers =
    if not ctx.trace then []
    else begin
      let tbl = Span.self_times () in
      let f = factor ctx (median_of (List.map (fun r -> r.calib) kept)) in
      let mean_ms n = 1e3 *. f *. Span.mean_self tbl n in
      let floor = Probe.range_ns_per_cell ctx in
      let query_ns_per_cell =
        1e6 *. mean_ms "serve.query" /. float_of_int (q * boxes * dims)
      in
      trace_metrics ctx ~traced:kept ~plain ~layers:[ "serve.update_box"; "serve.query" ]
      @ [
          ("interp.ops_per_query", float_of_int (ops1 - ops0) /. nq);
          ("camsim.range_floor_ns_per_cell", floor);
          ("camsim.range_gap_to_floor", query_ns_per_cell /. floor);
          ("camsim.search_ops_per_query", per_q (fun s -> s.Camsim.Stats.n_search_ops));
          ("camsim.kernel_binary_per_query", per_q (fun s -> s.Camsim.Stats.n_kernel_binary));
          ("camsim.kernel_nibble_per_query", per_q (fun s -> s.Camsim.Stats.n_kernel_nibble));
          ("camsim.kernel_generic_per_query", per_q (fun s -> s.Camsim.Stats.n_kernel_generic));
          ("serve.query_ms", mean_ms "serve.query");
          ("serve.update_box_us", 1e3 *. mean_ms "serve.update_box");
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
  {
    tally = tl;
    correct = tl.failed = 0;
    metrics = e2e @ round_metrics ctx kept @ latency_metrics ctx kept @ layers;
  }
