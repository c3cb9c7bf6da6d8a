(** The shard machinery {!Sharded_store} and {!Range_store} share:
    batch validation, fan-out on the ambient [Parallel] pool, the
    truncated top-k merge tree on [(value, global id)], the per-call
    counters, and the stats, serve section and {!Backend.t} adapter
    built on them (see [docs/SHARDING.md]). A store supplies its shards
    — each running one {!Session} — and a per-shard search; slot
    allocation, id tables and mutation stay in the store. Not
    thread-safe, like {!Session}. *)

type result = {
  values : float array array;  (** per query row: [k] values, best first *)
  indices : int array array;  (** the matching global ids *)
  latency : float;  (** slowest shard's simulated time *)
  energy : float;  (** summed simulated energy delta across shards *)
}
(** A merged answer — and, from [search], one shard's: per query row at
    most [k] candidates ascending in (value, id), with that shard's
    latency and energy. *)

type 'sh t

val shard_config : C4cam.Driver.Run_config.t -> C4cam.Driver.Run_config.t
(** A shard's config: [profile] and [trace] stripped, since shards run
    on worker domains. The set folds its aggregate into the original
    config's collector from the dispatching domain. *)

val create :
  config:C4cam.Driver.Run_config.t ->
  k:int ->
  err:(string -> exn) ->
  session:('sh -> Session.t) ->
  rows:(unit -> int * int) ->
  search:('sh -> float array array -> result) ->
  'sh array ->
  'sh t
(** [search sh batch] answers a validated batch on one shard, possibly
    on a worker domain; [session sh] is the shard's session, through
    which the set reads its device ledger and op counts, and from
    whose kernel ([q], [d]) and artifact status the set takes its own;
    [rows ()] is the store's (stored, free) row count; [err] builds the
    store's exception. [shards] must be non-empty. *)

val query : 'sh t -> float array array -> result
(** Validate (at least one row, each of [d] finite values),
    fan out, merge. Latency is the max over shards of each shard's
    time for the whole batch: shards are independent devices.
    @raise [err] on a bad batch. *)

val device_stats : 'sh t -> Camsim.Stats.t
val session_stats : 'sh t -> Session.stats
val fanout_wall_s : 'sh t -> float
val merge_wall_s : 'sh t -> float

val backend : 'sh t -> (float array array -> Backend.reply) -> Backend.t
(** The server adapter, replying through the store's own query. *)
