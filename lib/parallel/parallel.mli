(** A hand-rolled, dependency-free domain pool for multicore execution.

    The pool is a fixed set of worker domains created by {!run} and torn
    down when its callback returns. Work is submitted as chunked index
    ranges ({!parallel_for}) or whole-collection maps ({!map},
    {!map_list}); the submitting domain participates, so [jobs = 1]
    spawns no domains at all and every combinator degrades to the plain
    sequential loop.

    {2 Determinism contract}

    Parallel callers must write results only by index (or into
    provably disjoint windows). Under that discipline every observable
    output — simulated latency/energy, accuracy, instrumentation
    counters — is bit-identical for any [jobs] value: chunk boundaries
    affect only the schedule, never which slot an iteration writes.
    When an iteration raises, the exception of the {e lowest} failing
    index range is re-raised after the batch drains, so error behaviour
    is schedule-independent too.

    {2 Scoping}

    {!run} installs the pool as the ambient pool of the calling domain
    (domain-local, so worker domains never see it — nested data-parallel
    code inside a worker runs sequentially instead of deadlocking).
    Calling {!run} again from inside an active scope — from the owner
    domain or from a worker task — raises {!Nested_run}. *)

exception Nested_run
(** Raised by {!run} when a pool scope is already active. *)

type pool

val jobs : pool -> int
(** Number of domains that execute work (workers + the owner). *)

val set_default_jobs : int -> unit
(** Override the job count used when {!run} gets no [?jobs] (the CLI's
    [--jobs] flag lands here). Clamped to at least 1. *)

val default_jobs : unit -> int
(** The job count {!run} uses when called without [?jobs]: the
    {!set_default_jobs} override if any, else the [C4CAM_JOBS]
    environment variable, else 1. *)

val run : ?jobs:int -> (pool -> 'a) -> 'a
(** [run ~jobs f] spawns [jobs - 1] worker domains, installs the pool
    as the calling domain's ambient pool, runs [f], then joins the
    workers (also on exception). [jobs <= 0] resolves to
    [Domain.recommended_domain_count ()]. @raise Nested_run inside an
    active scope. *)

val current : unit -> pool option
(** The ambient pool of the calling domain ([None] outside {!run}
    scopes and always [None] inside worker domains). *)

val current_jobs : unit -> int
(** [jobs] of the ambient pool, 1 when there is none. *)

val parallel_for :
  ?pool:pool -> ?chunk:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for ~lo ~hi f] runs [f i] for every [lo <= i < hi],
    splitting the range into chunks executed by the pool ([?pool]
    defaults to the ambient pool; with none, or [jobs = 1], this is a
    plain [for] loop). Safe to call from anywhere: invocations from a
    worker domain or while another batch is in flight fall back to the
    sequential loop. [f] must only write state owned by its index. *)

val map : ?pool:pool -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; results are positioned by index, so the
    output order is independent of the schedule. *)

val map_list : ?pool:pool -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] (via arrays), preserving order. *)
