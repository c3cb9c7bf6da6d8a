(** Query-serving sessions: compile once, write stored rows once, then
    serve unlimited query batches against a pinned simulator.

    A session runs any pinned cam-level kernel: one query operand plus
    the tables it searches, in argument order. A compiled TorchScript
    kernel ({!create}) pins one table, the stored rows; the ACAM range
    kernel ({!of_acam}) pins two, the lower and upper box bounds. Both
    stores run their shards as sessions.

    A one-shot [C4cam.Driver.run_cam] pays the whole setup — the
    compilation pipeline, device allocation, and writing every stored
    row — on each call. A session amortizes all three: {!create}
    compiles (or fetches the artifact from {!Artifact_cache}), builds
    one simulator, and pins the stored rows; each {!query} then re-runs
    only the search phase, replaying the recorded device setup for free
    (see [Camsim.Simulator]'s serve mode and [docs/SERVING.md]).

    Determinism: serving N batches one at a time produces byte-identical
    values/indices and summed activity counters to one concatenated
    [run_cam] call — modulo the single write charge, which the session
    pays once instead of N times. The determinism gate in CI holds this
    across jobs values. *)

type t

exception Serve_error of string

val create :
  ?config:C4cam.Driver.Run_config.t ->
  ?artifact:C4cam.Driver.compiled * [ `Hit | `Miss ] ->
  spec:Archspec.Spec.t ->
  stored:float array array ->
  string ->
  t
(** [create ?config ~spec ~stored source] compiles [source] for [spec]
    (reusing the {!Artifact_cache} on a repeat pair) and pins [stored]
    — which must have the kernel's [n] rows — into a fresh simulator
    built from [config]. Device allocation and the stored-row writes
    happen lazily, during the first {!query}, and are recorded so later
    batches replay them for free.

    A caller that already consulted {!Artifact_cache.lookup} — say, to
    learn the kernel's shapes before building [stored] — passes the
    result as [artifact]; the session then skips its own lookup and
    reports that status, so {!cache_status} and the profile's
    [artifact_cache_hit] reflect the process's first sight of the
    [(source, spec)] pair rather than an always-hit re-lookup.

    With [config.profile], compile-time passes (on a cache miss) and,
    after every {!query}, the cumulative simulator + serving sections
    are folded into the collector.

    @raise Serve_error when [stored] has the wrong row count.
    @raise C4cam.Driver.Compile_error as {!C4cam.Driver.compile}. *)

val of_acam :
  ?config:C4cam.Driver.Run_config.t ->
  C4cam.Acam.compiled ->
  lo:float array array ->
  hi:float array array ->
  t
(** A session over the ACAM range kernel: [lo] and [hi] (each the
    kernel's box count of rows) are pinned like stored rows — written
    by [cam.write_range] during the first {!query}, replayed for free
    after. {!query} returns the best violation count and box row per
    query row, a short chunk through [C4cam.Acam.compile]'s module for
    its rows; {!cache_status} is [`Miss], since the module is built
    directly rather than compiled from cached TorchScript.
    @raise Serve_error when a table has the wrong row count. *)

val query : t -> float array array -> C4cam.Driver.run_result
(** Serve one batch of any positive row count: full [q]-row chunks
    (the kernel's query arity), then one tail of [r < q] rows, run in
    order against the shared simulator (each chunk's row-level work
    still fans out across the ambient [Parallel] domain pool). The
    tail runs the kernel lowered for [r] rows
    ({!C4cam.Driver.lower_rows}), made on first use and shared by
    every session of the artifact ({!Artifact_cache.lower}): charged
    by the [q]-row kernel's rules at [queries = r], it replays the same
    recorded device setup. Returned [values]/[indices]/[scores] are
    the chunk results concatenated in input order; [latency] is this
    call's simulated time, [energy] this call's simulated energy delta,
    and [stats] the session's cumulative ledger.

    @raise Serve_error on an empty batch or a row that is not
    {!valid_row} — checked before any device work. *)

type flat = {
  outputs : Interp.Rtval.t list list;
      (** per chunk of [r <= q] rows, in order: the kernel's raw results
          — for a scores-form kernel one row-major [r x n] buffer *)
  latency : float;  (** this call's simulated time *)
  energy : float;  (** this call's simulated energy delta *)
  ops_executed : (string * int) list;  (** this call's, merged *)
}

val query_flat : t -> float array array -> flat
(** {!query} up to, but not including, the decode: the served work,
    metered into {!stats}, with the kernel outputs left as the
    interpreter wrote them. A caller that reads them in place skips
    the row copies {!query} makes into its [run_result].
    @raise Serve_error as {!query}. *)

val release : t -> flat -> unit
(** Hand a flat result's output buffers back to the session, which
    reuses them (zeroed) for later batches instead of allocating; the
    caller reads nothing from them afterwards. {!query} is
    [query_flat], the decode, then [release]. *)

val update_stored : t -> row:int -> float array -> unit
(** Replace one pinned stored row in place. The physical device write
    happens lazily on the next {!query}: the row is marked dirty on
    the session's simulator, so the replay compares only the tile
    windows that hold it against what the device holds and rewrites
    (and charges for) only the changed rows — host work grows with the
    rows changed, not with the store. Nothing else needs telling: the
    next batch is a new interpreter run, so no packed query of an
    earlier batch can answer it.
    @raise Serve_error on a bad row index or a row that is not
    {!valid_row}. *)

val update_table : t -> table:int -> row:int -> float array -> unit
(** {!update_stored} for any pinned table, numbered in argument order
    from 0 ({!update_stored} is table 0).
    @raise Serve_error on a bad table or row index, or a row that is
    not {!valid_row}; the message names [update_table] and the
    table. *)

(** {1 Introspection} *)

type stats = {
  batches : int;  (** {!query} calls served *)
  queries_served : int;  (** total query rows across all batches *)
  wall_clock_s : float;  (** host time spent inside {!query} *)
  queries_per_s : float;  (** [queries_served /. wall_clock_s] *)
  sim_latency_s : float;  (** summed simulated latency *)
  sim_energy_j : float;  (** cumulative simulated energy *)
  write_energy_j : float;
      (** cumulative write energy — the session-wide setup charge, paid
          once, plus any {!update_stored} rewrites *)
  write_ops : int;
  cache : [ `Hit | `Miss ];  (** how {!create} got the artifact *)
  ops_executed : (string * int) list;  (** cumulative, merged by name *)
  alloc_minor_words_per_query : float;
      (** GC pressure of the steady-state hot path: minor-heap words
          allocated inside {!query} per query row, on the dispatching
          domain, over every batch after the first (setup) one.
          Deterministic for a fixed build at [jobs = 1] and gated in CI
          (see docs/OBSERVABILITY.md); 0 until a second batch runs. *)
}

val stats : t -> stats

val compiled : t -> C4cam.Driver.compiled
(** The TorchScript artifact a {!create}d session runs.
    @raise Invalid_argument on an {!of_acam} session. *)

val info : t -> C4cam.Driver.kernel_info
(** The pinned kernel's shapes: [q] query rows of [d] values against
    tables of [n] rows. *)

val serve_section : t -> Instrument.Profile.serve
(** The session's current serve section with the scheduler and shard
    fields at their single-session defaults. When the session's config
    carries a profile collector, the cumulative simulator section is
    folded into it as a side effect. [Backend] uses this so the server
    can overlay scheduler fields before installing the section. *)

(** {1 Shared with the sharded stores} *)

val valid_row : int -> float array -> bool
(** [valid_row d row]: [row] holds exactly [d] finite values — the
    domain of a query or stored row at every serving entry point
    ([query], both stores, [Server.submit]). *)

val section_of_stats :
  config:C4cam.Driver.Run_config.t ->
  device:Camsim.Stats.t ->
  stats ->
  Instrument.Profile.serve
(** {!serve_section} over any session-shaped [stats] and [device]
    ledger, with the same profile side effect. *)

type meter
(** The per-call counters behind {!stats}. *)

val meter : unit -> meter

val charge :
  meter -> t0:float -> w0:float -> rows:int -> latency:float -> unit
(** Count one served call of [rows] query rows that started at host
    time [t0] with [w0] minor words allocated. *)

val stats_of :
  meter ->
  cache:[ `Hit | `Miss ] ->
  ops:(string * int) list ->
  Camsim.Stats.t ->
  stats

val merge_counts :
  (string * int) list -> (string * int) list -> (string * int) list
(** Sum two op-count lists by name, sorted by name. *)

val run_config : t -> C4cam.Driver.Run_config.t
(** The run configuration the session executes under (as resolved at
    {!create}); [Server] folds its combined metrics into this config's
    collector. *)

val cache_status : t -> [ `Hit | `Miss ]
val simulator : t -> Camsim.Simulator.t
val stored_value : t -> Interp.Rtval.t
(** The first pinned table (the stored rows). Only {!update_table} may
    change a pinned table: the simulator tracks it, and a change that
    bypasses the dirty marks would never reach the device. *)
