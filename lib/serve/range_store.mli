(** Serving the ACAM range-analytics workload: a pinned box table,
    optionally sharded across independent simulators, each shard a
    {!Session} over its own [C4cam.Acam] module.

    {!create} builds one module per shard (a contiguous slice of the
    box rows) and pins the slice's lower and upper bounds as that
    session's two tables: the first {!query} pays allocation and the
    [cam.write_range] programming once, every later batch replays that
    setup for free and pays only for its searches. {!update_box}
    rewrites one row of both tables through [Session.update_table], so
    the next batch reprograms (and charges for) only the changed rows;
    an unchanged table replays as zero host work.

    Shards are searched in parallel on the ambient [Parallel] pool and
    merged by {!Shard_set} with k = 1. Determinism: results are
    byte-identical for any shard count — each query's merged answer is
    the lexicographically least (violations, global box id) candidate
    across shards, which reproduces the single-subarray selection's
    lower-index tie-break — and for any jobs value. *)

type t

exception Store_error of string

type result = {
  matches : int array;
      (** per query row: matched global box id, or [-1] (anomaly) *)
  values : float array array;  (** [rows x 1] best violation counts *)
  indices : int array array;  (** [rows x 1] best global box ids *)
  latency : float;
      (** this batch's simulated time: the slowest shard's summed
          q-chunk times *)
  energy : float;  (** this batch's simulated energy delta, all shards *)
}

val create :
  ?config:C4cam.Driver.Run_config.t -> ?shards:int ->
  ?spec:Archspec.Spec.t -> q:int -> lo:float array array ->
  hi:float array array -> unit -> t
(** A store over the [boxes x dims] bound table, whose shards run
    [q]-row range kernels. [spec] (default the 32x32 base square) is widened per
    shard via [C4cam.Acam.fit_spec]; [shards] (default 1) must not
    exceed the box count.
    @raise Store_error on inconsistent or non-finite bounds, or a bad
    shard count. *)

val query : t -> float array array -> result
(** Serve one batch: any positive number of rows (full [q]-row chunks
    plus one shorter tail, see {!Session.query}), each [dims] finite
    values. @raise Store_error otherwise. *)

val update_box : t -> row:int -> lo:float array -> hi:float array -> unit
(** Replace one box's bounds in place; the owning shard reprograms the
    changed row (charging for it) during its next batch.
    @raise Store_error on a bad row index, width or non-finite bound. *)

val boxes : t -> int
val dims : t -> int
val shards : t -> int

val stats : t -> Session.stats
(** Session-shaped cumulative stats aggregated across shards (the
    artifact-cache field is always [`Miss]: range modules are built
    directly, not compiled from cached TorchScript). *)

val device_stats : t -> Camsim.Stats.t
(** The simulator activity ledger summed across shards — energies and
    event counters; capacity fields add up the per-shard devices. *)

val backend : t -> Backend.t
(** Adapt the store to the concurrent server's scheduling interface:
    replies carry the matched box id (or [-1]) per query row in
    [indices] and the violation count in [values]. *)
