(** A concurrent serving front-end over one {!Serve.Session}: many
    logical clients submit query batches from any domain; a dedicated
    scheduler domain coalesces them into subarray-width micro-batches,
    runs each through the session (and the session's domain pool), and
    demultiplexes per-client results.

    {2 Determinism contract}

    Query rows are row-independent on the simulator: a row's
    values/indices depend only on that row and the stored set, never on
    which other rows share its micro-batch. So for {e any} interleaving
    of client submissions, each client's demuxed results are
    byte-identical to the same requests served one at a time through a
    private session ([bench/stress_serve.exe] replays seeded arrival
    schedules against that reference in CI, across a clients x jobs
    matrix). Host-side metrics (latency percentiles, fill
    ratios under a timed window) are the only schedule-dependent
    outputs.

    {2 Fairness}

    Micro-batches are assembled round-robin over clients with pending
    work, one request per client per turn — a client streaming
    thousands of requests cannot starve one submitting a single query;
    per-client completion order always matches per-client submission
    order. See [docs/SERVING.md]. *)

type t

type client
(** One logical caller's handle. Handles are cheap; a TCP connection,
    a thread of a host application, or a bench workload each hold one.
    A client's requests complete in its submission order. *)

type ticket
(** An in-flight request; redeem with {!await}. *)

exception Server_error of string  (** malformed request / bad config *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style raiser for {!Server_error} (shared with the wire
    front-ends). *)

exception Overloaded
(** Raised by {!submit} under [`Fail_fast] backpressure when admitting
    the request would push the queue past [queue_cap]. *)

exception Stopped  (** the server was {!stop}ped *)

type backpressure = [ `Block | `Fail_fast ]

type config = {
  batch_rows : int;
      (** micro-batch row capacity; default [4 * q] *)
  window_s : float;
      (** batching window: with pending rows below [batch_rows], the
          scheduler waits this long for more arrivals before
          dispatching. [0.] dispatches immediately (default). *)
  queue_cap : int;
      (** backpressure bound on queued (undispatched) rows; default
          256 *)
  backpressure : backpressure;
      (** what {!submit} does at the bound: block until room ([`Block],
          default) or raise {!Overloaded} ([`Fail_fast]) *)
  jobs : int;
      (** domain-pool width the scheduler executes batches under
          (default 1) *)
  start_paused : bool;
      (** hold the scheduler until {!resume} — lets a caller enqueue a
          known workload and get deterministic coalescing (the bench
          smoke serve workload relies on this); default false *)
}

val default_config : config

val create : ?config:config -> Serve.Session.t -> t
(** Wrap [session] and spawn the scheduler domain. The server owns the
    session from here on: concurrent direct [Session.query] calls on it
    would race the scheduler. Equivalent to
    [create_on (Serve.Backend.of_session session)]. *)

val create_on : ?config:config -> Serve.Backend.t -> t
(** Like {!create} over any serving backend — in particular
    [Serve.Sharded_store.backend], which puts the micro-batching
    scheduler in front of a multi-simulator store
    (see [docs/SHARDING.md]). The scheduler domain owns the backend
    from here on. *)

val connect : t -> client
(** Register a new logical client. @raise Stopped after {!stop}. *)

val disconnect : client -> unit
(** Remove a client with no queued requests from the round-robin. The
    clients after it keep their turn order, and the next turn goes to
    the client that would have had it. Idempotent; a later {!submit}
    on the handle raises [Server_error].
    @raise Server_error if the client still has queued requests. *)

val row_width : t -> int
(** The kernel's row width [d]: every query row holds [d] values. *)

val queue_cap : t -> int
(** The server's [config.queue_cap]: at most this many queued rows. *)

val submit : client -> float array array -> ticket
(** Enqueue one request of [1..] query rows of the kernel's width [d].
    Rows need not be a multiple of the kernel arity [q]: nothing is
    padded (see [Serve.Session.query]).
    @raise Server_error on an empty request or a row that is not
    {!Serve.Session.valid_row} — before anything is enqueued, so no
    co-batched request is affected
    @raise Overloaded under [`Fail_fast] backpressure at the cap
    @raise Stopped after {!stop}
    @raise Server_error on a {!disconnect}ed client. *)

type response = {
  r_values : float array array;  (** per request row: [k] values *)
  r_indices : int array array;
  r_scores : float array array option;
  r_batch_seq : int;  (** which micro-batch served it (0-based) *)
  r_latency_s : float;  (** submit-to-completion wall time *)
}

val await : ticket -> response
(** Block until the request is served. Re-raises the backend's failure
    (e.g. [Serve.Session.Serve_error]) if the request failed. When a
    micro-batch of two or more requests fails, each of its requests is
    re-run alone: only a request that fails alone gets the failure,
    and every other one gets exactly the reply a solo batch gives,
    with the micro-batch's [r_batch_seq]. *)

val rpc : client -> float array array -> response
(** [submit] then [await]. *)

val resume : t -> unit

val drain : t -> unit
(** Block until every queued request has been served and no batch is in
    flight. The server must not be paused (a paused server with pending
    work never drains). *)

val stop : t -> unit
(** Drain outstanding requests (even when paused), shut the scheduler
    domain down and join it. Idempotent; subsequent {!submit}s raise
    {!Stopped}. *)

val serve_all :
  ?config:config -> clients:int -> Serve.Backend.t ->
  float array array list -> t * response list
(** Serve a known list of requests deterministically: request [i] goes
    through client [i mod clients]. The requests are enqueued in waves
    that fit [queue_cap] — each wave enqueued while the scheduler is
    paused, then served to completion — so the coalescing, and every
    response's [r_batch_seq], depend only on the requests and the
    config, and a workload larger than the cap never blocks a submit
    on a paused server. [config.start_paused] is ignored. Returns the
    stopped server (for {!stats}) and the responses in request order.
    @raise Server_error when [clients < 1]; re-raises a batch's
    failure as {!await}. *)

(** {1 Metrics} *)

type stats = {
  batches_coalesced : int;
      (** backend calls that succeeded: a micro-batch, or each solo
          re-run of a failed one *)
  rows_served : int;  (** query rows served *)
  rows_padded : int;  (** always 0: micro-batches are not padded *)
  requests_served : int;
  clients_connected : int;
      (** live clients: connected and not yet {!disconnect}ed *)
  batch_fill : float;  (** [rows_served / batches_coalesced] *)
  queue_hwm : int;  (** queued-row high-water mark *)
  lat_p50_s : float;
      (** submit-to-completion percentiles over the last
          {!latency_window} served requests *)
  lat_p99_s : float;
  session : Serve.Session.stats;  (** the wrapped session's ledger *)
}

val latency_window : int
(** How many of the most recent request latencies the percentiles
    cover: 4096, kept in a preallocated ring, so a long-lived server's
    memory does not grow with the requests it serves. *)

val stats : t -> stats
