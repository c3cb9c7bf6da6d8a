(** A CAM store larger than one device spec: stored rows partitioned
    across N private simulators (one {!Session} each), query batches
    fanned out across shards on the ambient [Parallel] domain pool, and
    per-shard candidates reduced through a top-k merge tree — the
    partition pass's [merge_partial] semantics lifted from tiles to
    shards. See [docs/SHARDING.md].

    {2 Determinism contract}

    For the same live rows, {!query} results (values {e and} external
    ids) are byte-identical for any shard count and any [jobs] value:
    per-pair distances are shard-invariant (each is accumulated over
    column chunks in column order wherever the row lives), selection
    orders by [(distance, external id)] with free slots excluded, and
    the merge tree is an associative reduction of sorted lists. CI
    holds shards 1 vs 4 across jobs 1 vs 4 to this.

    {2 Mutation and energy accounting}

    Rows are addressed by stable external ids assigned by {!insert} in
    monotonic order. Each shard keeps a FIFO free-ring of row slots;
    {!delete} pushes the slot (stale device contents are filtered
    host-side, no write charged) and a later {!insert} pops the oldest
    freed slot. Inserts and updates touch exactly one shard: the
    written row is marked dirty on its simulator, and the next replay
    on it compares only the tile windows holding marked rows and
    charges write energy for the changed rows only.

    Not thread-safe — one caller (or the server's scheduler domain) at
    a time, like {!Session}. *)

type t

exception Store_error of string

val create :
  ?config:C4cam.Driver.Run_config.t ->
  spec:Archspec.Spec.t ->
  q:int ->
  d:int ->
  k:int ->
  shards:int ->
  capacity:int ->
  unit ->
  t
(** [create ~spec ~q ~d ~k ~shards ~capacity ()] builds an empty store
    of at least [capacity] row slots split evenly across [shards]
    simulators (each shard's slot count is rounded up to a multiple of
    [spec.rows] when it exceeds one subarray, to satisfy the partition
    pass). All shards share one compiled scores-form artifact
    ([Kernels.hdc_dot_scores]), so creation costs a single pipeline
    run. [d] must satisfy the usual [d mod spec.cols = 0] constraint.
    The config's [profile]/[trace] are used from the dispatching domain
    only; shard sessions run stripped copies.
    @raise Store_error on invalid shape parameters.
    @raise C4cam.Driver.Compile_error as [C4cam.Driver.compile]. *)

val insert : t -> float array -> int
(** Store a row in the lowest-load shard (round-robin over shards with
    free slots), reusing the oldest freed slot if any. Returns the
    row's stable external id. @raise Store_error when full, on a bad
    row width, or on a non-finite value. *)

val delete : t -> int -> unit
(** Remove a row by external id; its slot becomes reusable.
    @raise Store_error on an unknown id. *)

val update : t -> int -> float array -> unit
(** Replace a row's contents in place (id and slot unchanged).
    @raise Store_error on an unknown id, a bad width or a non-finite
    value. *)

type result = Shard_set.result = {
  values : float array array;
      (** per query row: [k] distances, best (smallest) first — for the
          dot metric a smaller CAM distance is a larger similarity *)
  indices : int array array;  (** the matching external ids *)
  latency : float;
      (** slowest shard's simulated time this call — shards search in
          parallel *)
  energy : float;  (** summed simulated energy delta across shards *)
}

val query : t -> float array array -> result
(** Serve one batch of any positive row count (full [q]-row chunks
    plus one shorter tail, see {!Session.query}). Fans the batch
    to every shard, selects each shard's top-k live candidates in
    [(distance, external id)] order straight from the kernel's flat
    score buffer ([Session.query_flat], no decode), and merges.
    @raise Store_error on a bad batch (no rows, a row that is not [d]
    wide, a non-finite value), or when fewer than [k] rows are live. *)

(** {1 Introspection} *)

type shard_info = {
  info_rows : int;  (** live rows in this shard *)
  info_free : int;  (** free slots in this shard *)
  info_write_ops : int;
  info_energy_j : float;
}

type stats = {
  shards : int;
  rows_stored : int;
  rows_free : int;
  capacity : int;  (** total slots (>= the requested capacity) *)
  session : Session.stats;
      (** aggregated session-shaped view: counters summed across
          shards, [sim_latency_s] the per-call max summed over calls *)
  fanout_wall_s : float;  (** host time fanning batches to shards *)
  merge_wall_s : float;  (** host time in the merge tree *)
  per_shard : shard_info array;
}

val stats : t -> stats
val rows_stored : t -> int
val rows_free : t -> int

val device_stats : t -> Camsim.Stats.t
(** Fresh aggregate of the per-shard simulator ledgers (counters and
    energies summed). Allocates — for reporting, not the serve path. *)

val backend : t -> Backend.t
(** Serve this store through [Server] (micro-batching, backpressure —
    see [Server.create_on]). The backend's replies carry the merged
    values/external ids; [scores] is [None]. *)
