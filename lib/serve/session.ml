exception Serve_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Serve_error s)) fmt

(* On every query row of the serving hot path, so branch-free and
   allocation-free (the float accumulator stays unboxed): [x -. x] is 0
   exactly when [x] is finite and NaN otherwise, and a NaN term keeps
   the sum NaN. *)
let valid_row d row =
  Array.length row = d
  &&
  let acc = ref 0. in
  for i = 0 to d - 1 do
    let x = Array.unsafe_get row i in
    acc := !acc +. (x -. x)
  done;
  !acc = 0.

type stats = {
  batches : int;
  queries_served : int;
  wall_clock_s : float;
  queries_per_s : float;
  sim_latency_s : float;
  sim_energy_j : float;
  write_energy_j : float;
  write_ops : int;
  cache : [ `Hit | `Miss ];
  ops_executed : (string * int) list;
  alloc_minor_words_per_query : float;
}

type meter = {
  mutable m_batches : int;
  mutable m_queries : int;
  mutable m_wall : float;
  mutable m_latency : float;  (** summed simulated latency *)
  mutable m_alloc_words : float;
      (** minor words allocated inside served calls, steady-state
          batches only (the first batch — compile + device setup — is
          warm-up) *)
  mutable m_alloc_queries : int;  (** query rows behind [m_alloc_words] *)
}

(* A pinned cam-level kernel: one query operand plus the tables it
   searches, in argument order. A compiled TorchScript kernel pins one
   table (the stored rows), the ACAM range kernel two (lo and hi). *)
type t = {
  s_artifact : C4cam.Driver.compiled option;
      (** the TorchScript artifact; [None] for a kernel built at the
          cam level *)
  s_info : C4cam.Driver.kernel_info;
  s_fn : string;
  s_lower : int -> Ir.Func_ir.modul;  (** the kernel for [r < q] rows *)
  s_kernels : (Ir.Func_ir.modul * Interp.Rtval.t list) option array;
      (** slot [r]: the module for [r] query rows and its arguments (the
          first [r] rows of [s_qbuf], and the tables); slot [q] is the
          pinned kernel, a shorter one is lowered on first use *)
  s_cache : [ `Hit | `Miss ];
  s_config : C4cam.Driver.Run_config.t;
  s_sim : Camsim.Simulator.t;
  s_pool : Interp.Ops.Pool.t;  (** result buffers handed back by [release] *)
  s_tables : Interp.Rtval.t array;  (** each a [Buffer], in argument order *)
  s_qbuf : Interp.Rtval.buffer;
      (** persistent [q x d] query buffer; chunks are blitted in, so
          the operand's backing stays stable across batches *)
  s_meter : meter;
  mutable s_ops : (string * int) list;  (** cumulative, merged *)
}

let meter () =
  {
    m_batches = 0;
    m_queries = 0;
    m_wall = 0.;
    m_latency = 0.;
    m_alloc_words = 0.;
    m_alloc_queries = 0;
  }

let charge m ~t0 ~w0 ~rows ~latency =
  (* GC-pressure counter: minor words this call allocated on the
     dispatching domain, steady-state batches only — the first batch
     pays compile + device setup and is excluded as warm-up. *)
  if m.m_batches > 0 then begin
    m.m_alloc_words <- m.m_alloc_words +. (Gc.minor_words () -. w0);
    m.m_alloc_queries <- m.m_alloc_queries + rows
  end;
  m.m_batches <- m.m_batches + 1;
  m.m_queries <- m.m_queries + rows;
  m.m_latency <- m.m_latency +. latency;
  m.m_wall <- m.m_wall +. Float.max 0. (Instrument.Collect.now () -. t0)

let stats_of m ~cache ~ops (device : Camsim.Stats.t) =
  {
    batches = m.m_batches;
    queries_served = m.m_queries;
    wall_clock_s = m.m_wall;
    queries_per_s =
      (if m.m_wall > 0. then float_of_int m.m_queries /. m.m_wall else 0.);
    sim_latency_s = m.m_latency;
    sim_energy_j = Camsim.Stats.total_energy device;
    write_energy_j = device.e_write;
    write_ops = device.n_write_ops;
    cache;
    ops_executed = ops;
    alloc_minor_words_per_query =
      (if m.m_alloc_queries > 0 then
         m.m_alloc_words /. float_of_int m.m_alloc_queries
       else 0.);
  }

let compiled t =
  match t.s_artifact with
  | Some c -> c
  | None -> invalid_arg "Session.compiled: a cam-level session has no artifact"

let info t = t.s_info
let run_config t = t.s_config
let cache_status t = t.s_cache
let simulator t = t.s_sim
let stored_value t = t.s_tables.(0)

(* The query operand and the tables, in argument order. *)
let kernel_args (info : C4cam.Driver.kernel_info) tables qval =
  List.init
    (Array.length tables + 1)
    (fun i ->
      if i < info.query_arg then tables.(i)
      else if i = info.query_arg then qval
      else tables.(i - 1))

(* Pin [tables] (each [info.n] rows) on a fresh simulator. Device
   allocation and the table writes happen inside the first executed
   batch; they are recorded so every later batch replays them for free
   (and [update_table] rewrites only changed rows). *)
let pin ~config ~cache ?artifact ~spec ~modul ~fn ~lower
    ~(info : C4cam.Driver.kernel_info) tables =
  Array.iter
    (fun rows ->
      if Array.length rows <> info.n then
        fail "expected %d stored rows, got %d" info.n (Array.length rows))
    tables;
  let sim = C4cam.Driver.create_sim config spec in
  Camsim.Simulator.set_query_hint sim info.q;
  Camsim.Simulator.start_recording sim;
  let tables =
    Array.map
      (fun rows ->
        let b = Interp.Rtval.buffer_of_rows rows in
        (* a pinned table changes only through [update_table], which
           marks what it writes *)
        Camsim.Simulator.track sim b.Interp.Rtval.b_data;
        Interp.Rtval.Buffer b)
      tables
  in
  let qbuf = Interp.Rtval.fresh_buffer [ info.q; info.d ] in
  let kernels = Array.make (info.q + 1) None in
  kernels.(info.q) <- Some (modul, kernel_args info tables (Buffer qbuf));
  {
    s_artifact = artifact;
    s_info = info;
    s_fn = fn;
    s_lower = lower;
    s_kernels = kernels;
    s_cache = cache;
    s_config = config;
    s_sim = sim;
    s_pool = Interp.Ops.Pool.create ();
    s_tables = tables;
    s_qbuf = qbuf;
    s_meter = meter ();
    s_ops = [];
  }

let create ?(config = C4cam.Driver.Run_config.default) ?artifact ~spec
    ~stored source =
  let compiled, cache =
    match artifact with
    | Some pair -> pair
    | None ->
        Artifact_cache.lookup
          ?profile:config.C4cam.Driver.Run_config.profile ~spec source
  in
  pin ~config ~cache ~artifact:compiled ~spec:compiled.spec
    ~modul:compiled.cam_ir ~fn:compiled.fn_name
    ~lower:(Artifact_cache.lower compiled)
    ~info:compiled.info [| stored |]

let of_acam ?(config = C4cam.Driver.Run_config.default)
    (c : C4cam.Acam.compiled) ~lo ~hi =
  pin ~config ~cache:`Miss ~spec:c.ra_spec ~modul:c.ra_modul ~fn:c.ra_fn
    ~lower:(fun r ->
      (C4cam.Acam.compile ~spec:c.ra_spec ~q:r ~boxes:c.ra_rows ~dims:c.ra_d)
        .ra_modul)
    ~info:
      {
        C4cam.Driver.q = c.ra_q;
        n = c.ra_rows;
        d = c.ra_d;
        k = 1;
        metric = Dialects.Cim.Hamming;
        output = `Topk;
        query_arg = 0;
        stored_arg = 1;
      }
    [| lo; hi |]

let merge_counts a b =
  List.fold_left
    (fun acc (k, n) ->
      match List.assoc_opt k acc with
      | Some m -> (k, m + n) :: List.remove_assoc k acc
      | None -> (k, n) :: acc)
    a b
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let stats t =
  stats_of t.s_meter ~cache:t.s_cache ~ops:t.s_ops
    (Camsim.Simulator.stats t.s_sim)

(* A serve section from session-shaped stats and the device ledger
   behind them, with scheduler fields zeroed and shard fields at their
   single-simulator defaults: folds the simulator section as a side
   effect when profiling is on, then builds the record. The server (via
   [Backend]) overlays its scheduler fields; a sharded store overlays
   its shard fields. *)
let section_of_stats ~config ~device st =
  (match config.C4cam.Driver.Run_config.profile with
  | None -> ()
  | Some p ->
      C4cam.Driver.fold_sim_stats p ~latency:st.sim_latency_s
        ~energy:st.sim_energy_j ~ops_executed:st.ops_executed device);
  {
    Instrument.Profile.batches = st.batches;
    queries_served = st.queries_served;
    serve_wall_s = st.wall_clock_s;
    queries_per_s = st.queries_per_s;
    serve_write_energy_j = st.write_energy_j;
    artifact_cache_hit = (st.cache = `Hit);
    alloc_minor_words_per_query = st.alloc_minor_words_per_query;
    batches_coalesced = 0;
    batch_fill = 0.;
    queue_hwm = 0;
    lat_p50_s = 0.;
    lat_p99_s = 0.;
    shards = 1;
    rows_stored = 0;
    rows_free = 0;
    shard_fanout_wall_s = 0.;
    shard_merge_wall_s = 0.;
  }

let serve_section t =
  section_of_stats ~config:t.s_config
    ~device:(Camsim.Simulator.stats t.s_sim)
    (stats t)

let fold_profile t =
  match t.s_config.C4cam.Driver.Run_config.profile with
  | None -> ()
  | Some p -> Instrument.Collect.set_serve p (serve_section t)

(* One execution against a pinned simulator. The first ever executes
   for real under recording (allocations + stored writes charged once);
   every later one rewinds the recording and replays the setup for
   free, paying only for its searches. *)
let replay sim run =
  let sealed = Camsim.Simulator.serving sim in
  if sealed then Camsim.Simulator.rewind sim;
  let r = run () in
  if not sealed then Camsim.Simulator.seal_recording sim;
  r

(* The kernel for [r] query rows and its arguments. A lowering's
   device setup equals the pinned kernel's, so it replays the same
   recording; [replay] fails loudly if it did not. *)
let kernel t r =
  match t.s_kernels.(r) with
  | Some k -> k
  | None ->
      let modul =
        try t.s_lower r with
        | C4cam.Driver.Compile_error e | C4cam.Acam.Range_error e ->
            fail "lowering the kernel for %d query rows: %s" r e
      in
      let view =
        Interp.Rtval.buffer_view t.s_qbuf ~offsets:[ 0; 0 ]
          ~sizes:[ r; t.s_info.d ]
      in
      let k = (modul, kernel_args t.s_info t.s_tables (Buffer view)) in
      t.s_kernels.(r) <- Some k;
      k

(* Rows [off .. off + r - 1] of a validated batch, [r <= q], against
   the session's simulator. *)
let run_chunk t batch ~off ~r =
  (* Blit the chunk into the session's persistent query buffer, the
     query operand; every search reads its window in place. *)
  let d = t.s_info.d in
  let dst = t.s_qbuf.Interp.Rtval.b_data in
  for i = 0 to r - 1 do
    Array.blit batch.(off + i) 0 dst (i * d) d
  done;
  let modul, args = kernel t r in
  replay t.s_sim @@ fun () ->
  try Interp.Machine.run ~sim:t.s_sim ~pool:t.s_pool modul t.s_fn args
  with Interp.Machine.Runtime_error e -> fail "runtime error: %s" e

type flat = {
  outputs : Interp.Rtval.t list list;
  latency : float;
  energy : float;
  ops_executed : (string * int) list;
}

let query_flat t batch =
  let { C4cam.Driver.q; d; _ } = t.s_info in
  let total = Array.length batch in
  if total = 0 then fail "empty batch";
  for i = 0 to total - 1 do
    if not (valid_row d batch.(i)) then
      fail "query row %d: expected %d finite values" i d
  done;
  let t0 = Instrument.Collect.now () in
  let w0 = Gc.minor_words () in
  let sim_stats = Camsim.Simulator.stats t.s_sim in
  let e0 = Camsim.Stats.total_energy sim_stats in
  (* [q]-row chunks and a shorter tail run in order against the one
     simulator — the determinism contract needs the same event sequence
     as the concatenated one-shot run; row-level search work inside
     each chunk still fans out across the ambient Parallel pool. *)
  let outcomes =
    List.init
      ((total + q - 1) / q)
      (fun i -> run_chunk t batch ~off:(i * q) ~r:(min q (total - (i * q))))
  in
  let latency =
    List.fold_left
      (fun acc (o : Interp.Machine.outcome) -> acc +. o.latency)
      0. outcomes
  in
  let ops =
    List.fold_left
      (fun acc (o : Interp.Machine.outcome) ->
        merge_counts acc o.ops_executed)
      [] outcomes
  in
  let energy = Camsim.Stats.total_energy sim_stats -. e0 in
  charge t.s_meter ~t0 ~w0 ~rows:total ~latency;
  t.s_ops <- merge_counts t.s_ops ops;
  fold_profile t;
  {
    outputs =
      List.map (fun (o : Interp.Machine.outcome) -> o.results) outcomes;
    latency;
    energy;
    ops_executed = ops;
  }

let decode t (f : flat) =
  let results =
    List.map (C4cam.Driver.decode_results t.s_info) f.outputs
  in
  (* a single-chunk batch (the common serving shape) returns the
     chunk's arrays directly instead of re-concatenating them *)
  let cat f =
    match results with
    | [ r ] -> f r
    | _ -> Array.concat (List.map f results)
  in
  {
    C4cam.Driver.values = cat (fun (v, _, _) -> v);
    indices = cat (fun (_, i, _) -> i);
    scores =
      (match results with
      | (_, _, Some _) :: _ ->
          Some (cat (fun (_, _, s) -> Option.value s ~default:[||]))
      | _ -> None);
    latency = f.latency;
    energy = f.energy;
    power = (if f.latency > 0. then f.energy /. f.latency else 0.);
    stats = Camsim.Simulator.stats t.s_sim;
    ops_executed = f.ops_executed;
  }

let release t (f : flat) =
  List.iter (Interp.Ops.Pool.release t.s_pool) f.outputs

let query t batch =
  let f = query_flat t batch in
  let r = decode t f in
  release t f;
  r

let update_table t ~table ~row values =
  let { C4cam.Driver.n; d; _ } = t.s_info in
  if table < 0 || table >= Array.length t.s_tables then
    fail "update_table: no table %d (the kernel pins %d)" table
      (Array.length t.s_tables);
  if row < 0 || row >= n then
    fail "update_table: table %d row %d out of bounds (it has %d rows)" table
      row n;
  if not (valid_row d values) then
    fail "update_table: table %d expected %d finite values" table d;
  let buf = Interp.Rtval.as_buffer t.s_tables.(table) in
  let off = buf.b_offset + (row * d) in
  Array.blit values 0 buf.b_data off d;
  (* the next replay compares (and rewrites) only windows this row is
     in *)
  Camsim.Simulator.mark t.s_sim buf.b_data ~off ~len:d

let update_stored t ~row values = update_table t ~table:0 ~row values
