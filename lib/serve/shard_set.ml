type result = {
  values : float array array;
  indices : int array array;
  latency : float;
  energy : float;
}

type 'sh t = {
  config : C4cam.Driver.Run_config.t;
  q : int;
  d : int;
  k : int;
  cache : [ `Hit | `Miss ];
  err : string -> exn;
  session : 'sh -> Session.t;
  rows : unit -> int * int;
  search : 'sh -> float array array -> result;
  shards : 'sh array;
  (* merge-tree scratch, dispatcher-owned: per-shard candidate lists
     for the row being merged, plus one temporary for the two-way
     merge. Reused across rows and batches — the merge allocates
     nothing per row. *)
  mval : float array array;  (* shards x k *)
  mext : int array array;
  mlen : int array;
  tval : float array;  (* k *)
  text : int array;
  meter : Session.meter;  (* latency: per-call max over shards *)
  mutable fanout_wall : float;
  mutable merge_wall : float;
}

let fail t fmt = Printf.ksprintf (fun s -> raise (t.err s)) fmt

let shard_config config =
  { config with C4cam.Driver.Run_config.profile = None; trace = None }

let create ~config ~k ~err ~session ~rows ~search shards =
  let n = Array.length shards in
  (* every shard runs the same kernel shape from the same artifact *)
  let s0 = session shards.(0) in
  let { C4cam.Driver.q; d; _ } = Session.info s0 in
  {
    config;
    q;
    d;
    k;
    cache = Session.cache_status s0;
    err;
    session;
    rows;
    search;
    shards;
    mval = Array.make_matrix n k 0.;
    mext = Array.make_matrix n k 0;
    mlen = Array.make n 0;
    tval = Array.make k 0.;
    text = Array.make k 0;
    meter = Session.meter ();
    fanout_wall = 0.;
    merge_wall = 0.;
  }

let fanout_wall_s t = t.fanout_wall
let merge_wall_s t = t.merge_wall

(* ---- stats and profile ------------------------------------------------ *)

let device_stats t =
  let agg = Camsim.Stats.create () in
  Array.iter
    (fun sh ->
      Camsim.Stats.add_into ~into:agg
        (Camsim.Simulator.stats (Session.simulator (t.session sh))))
    t.shards;
  agg

let session_stats_of t device =
  Session.stats_of t.meter ~cache:t.cache device
    ~ops:
      (Array.fold_left
         (fun acc sh ->
           Session.merge_counts acc
             (Session.stats (t.session sh)).Session.ops_executed)
         [] t.shards)

let session_stats t = session_stats_of t (device_stats t)

let serve_section t =
  let device = device_stats t in
  let rows_stored, rows_free = t.rows () in
  {
    (Session.section_of_stats ~config:t.config ~device
       (session_stats_of t device))
    with
    Instrument.Profile.shards = Array.length t.shards;
    rows_stored;
    rows_free;
    shard_fanout_wall_s = t.fanout_wall;
    shard_merge_wall_s = t.merge_wall;
  }

let fold_profile t =
  match t.config.C4cam.Driver.Run_config.profile with
  | None -> ()
  | Some p -> Instrument.Collect.set_serve p (serve_section t)

(* ---- query: fan out, merge ------------------------------------------- *)

(* Merge candidate list [b] into list [a] (both sorted), keeping the
   best [k]. Associative and truncation-safe: the global top-k of a
   union is inside the top-k of every sub-union containing it, so any
   merge-tree shape yields the same list. *)
let merge_into t a b =
  let la = t.mlen.(a) and lb = t.mlen.(b) in
  let av = t.mval.(a) and ae = t.mext.(a) in
  let bv = t.mval.(b) and be = t.mext.(b) in
  let out = min t.k (la + lb) in
  let tv = t.tval and te = t.text in
  let i = ref 0 and j = ref 0 in
  for o = 0 to out - 1 do
    let take_a =
      if !i >= la then false
      else if !j >= lb then true
      else
        let c = Float.compare av.(!i) bv.(!j) in
        c < 0 || (c = 0 && ae.(!i) < be.(!j))
    in
    if take_a then begin
      tv.(o) <- av.(!i);
      te.(o) <- ae.(!i);
      incr i
    end
    else begin
      tv.(o) <- bv.(!j);
      te.(o) <- be.(!j);
      incr j
    end
  done;
  Array.blit tv 0 av 0 out;
  Array.blit te 0 ae 0 out;
  t.mlen.(a) <- out

let query t batch =
  let total = Array.length batch in
  if total = 0 then fail t "empty batch";
  for i = 0 to total - 1 do
    if not (Session.valid_row t.d batch.(i)) then
      fail t "query row %d: expected %d finite values" i t.d
  done;
  let t0 = Instrument.Collect.now () in
  let w0 = Gc.minor_words () in
  let nsh = Array.length t.shards in
  (* Fan out: one task per shard on the ambient Parallel pool. Worker
     domains see no pool, so each shard's inner row loop runs
     sequentially — the per-domain zero-allocation contract of the
     simulator hot path holds shard-privately. A single-shard set
     skips the pool to keep the inner row fan-out on the dispatcher. *)
  let search sh = t.search sh batch in
  let per_shard =
    if nsh = 1 then Array.map search t.shards
    else Parallel.map search t.shards
  in
  let t1 = Instrument.Collect.now () in
  let values = Array.make_matrix total t.k 0. in
  let indices = Array.make_matrix total t.k 0 in
  for g = 0 to total - 1 do
    for s = 0 to nsh - 1 do
      let c = per_shard.(s).values.(g) in
      t.mlen.(s) <- Array.length c;
      Array.blit c 0 t.mval.(s) 0 (Array.length c);
      Array.blit per_shard.(s).indices.(g) 0 t.mext.(s) 0 (Array.length c)
    done;
    (* pairwise tree reduction: after each pass, list [i] holds the
       merge of lists [i] and [i + gap] *)
    let gap = ref 1 in
    while !gap < nsh do
      let i = ref 0 in
      while !i + !gap < nsh do
        merge_into t !i (!i + !gap);
        i := !i + (2 * !gap)
      done;
      gap := !gap * 2
    done;
    Array.blit t.mval.(0) 0 values.(g) 0 t.k;
    Array.blit t.mext.(0) 0 indices.(g) 0 t.k
  done;
  let t2 = Instrument.Collect.now () in
  let latency =
    Array.fold_left (fun m c -> Float.max m c.latency) 0. per_shard
  in
  let energy = Array.fold_left (fun a c -> a +. c.energy) 0. per_shard in
  t.fanout_wall <- t.fanout_wall +. Float.max 0. (t1 -. t0);
  t.merge_wall <- t.merge_wall +. Float.max 0. (t2 -. t1);
  Session.charge t.meter ~t0 ~w0 ~rows:total ~latency;
  fold_profile t;
  { values; indices; latency; energy }

let backend t query =
  {
    Backend.q = t.q;
    d = t.d;
    run_config = t.config;
    query;
    stats = (fun () -> session_stats t);
    serve_section = (fun () -> serve_section t);
  }
