(** The immutable compilation/execution profile assembled by a
    {!Collect.t} collector: per-pass wall-clock timings and IR deltas,
    rewrite-rule application counters, and (when the compiled kernel was
    executed) the simulator-side activity ledger.

    This module is deliberately dependency-free: the IR and simulator
    layers report plain strings, ints and floats into it, so [instrument]
    sits below every other library in the build graph. *)

type pass_entry = {
  pass_name : string;
  duration_s : float;  (** wall-clock, non-negative *)
  ops_before : int;  (** total op count (nested included) entering *)
  ops_after : int;
  dialects_before : (string * int) list;  (** op count per dialect, sorted *)
  dialects_after : (string * int) list;
  rewrites : (string * int) list;
      (** rewrite-rule counters that fired during this pass, sorted *)
}

(** Simulator activity, folded in from [Camsim.Stats] by the driver. *)
type sim = {
  sim_latency_s : float;
  sim_energy_j : float;
  e_search : float;
  e_write : float;
  e_merge : float;
  e_select : float;
  e_overhead : float;
  search_ops : int;
  query_cycles : int;
  write_ops : int;
  banks : int;
  mats : int;
  arrays : int;
  subarrays : int;
  kernel_binary : int;
      (** row distances computed by the bit-packed binary kernel *)
  kernel_nibble : int;  (** by the 4-bit packed kernel *)
  kernel_generic : int;  (** by the scalar per-cell loop *)
  kernel_early_exit : int;
      (** threshold-search rows abandoned early (counts default to 0
          when parsing pre-kernel profiles) *)
  ops_executed : (string * int) list;
      (** interpreter ops executed per dialect, sorted by name — the
          deterministic work proxy from [Interp.Ops]; identical across
          jobs values (defaults to [[]] when parsing
          pre-interpreter-counter profiles) *)
}

(** Cumulative serving-session stats, folded in by [Serve.Session]
    (see [docs/SERVING.md]). *)
type serve = {
  batches : int;  (** [Session.query] calls served so far *)
  queries_served : int;  (** total query rows across all batches *)
  serve_wall_s : float;
      (** host wall-clock spent inside [Session.query] — never gated *)
  queries_per_s : float;  (** [queries_served /. serve_wall_s] *)
  serve_write_energy_j : float;
      (** simulated write energy — charged once at session setup, plus
          only the rows later replaced through [update_stored] *)
  artifact_cache_hit : bool;
      (** whether [Session.create] reused a cached compiled artifact *)
  alloc_minor_words_per_query : float;
      (** GC pressure of the steady-state hot path: minor-heap words
          allocated per query row on the dispatching domain, over every
          batch after the first (setup) one. Deterministic for a fixed
          build at [jobs = 1] — worker-domain allocations are not
          counted — and gated in CI (see docs/OBSERVABILITY.md); 0
          until a second batch has run. *)
  batches_coalesced : int;
      (** micro-batches assembled by the concurrent server's scheduler
          (0 for a plain single-caller session; see [Server]) *)
  batch_fill : float;
      (** mean query rows per micro-batch — > 1 means the scheduler is
          actually coalescing concurrent submissions *)
  queue_hwm : int;  (** queue-depth high-water mark, in query rows *)
  lat_p50_s : float;
      (** median submit-to-delivery wall latency across requests *)
  lat_p99_s : float;
      (** 99th-percentile submit-to-delivery wall latency (both
          percentiles are host time — never gated, stripped by the
          determinism diff) *)
  shards : int;
      (** simulator shards behind the session (1 for a plain
          single-simulator session; see [docs/SHARDING.md]) *)
  rows_stored : int;  (** live rows across all shards (0 unsharded) *)
  rows_free : int;  (** free row slots across all shards (0 unsharded) *)
  shard_fanout_wall_s : float;
      (** host wall-clock spent fanning batches across shard domains —
          never gated, stripped by the determinism diff *)
  shard_merge_wall_s : float;
      (** host wall-clock spent in the top-k merge tree — never gated,
          stripped by the determinism diff *)
}

(** The heterogeneous-placement decision and its cost breakdown,
    folded in by [Hetero] (see [docs/PLACEMENT.md]). *)
type placed = {
  placement : string;
      (** the chosen assignment, e.g. ["gemv=xbar score=cam select=cam"] *)
  place_objective : string;  (** "latency" | "energy" | "edp" *)
  candidates : int;  (** legal assignments the chooser priced *)
  device_latency_s : (string * float) list;
      (** modeled latency summed per device, sorted by device name *)
  device_energy_j : (string * float) list;
  moved_bytes : int;  (** bytes crossing cut points *)
  move_latency_s : float;
  move_energy_j : float;
}

type t = {
  frontend_s : float;  (** TorchScript parse + emit time *)
  total_s : float;
      (** collector creation to snapshot; serialized both as [total_s]
          and as the [wall_clock_s] alias *)
  jobs : int;
      (** domain-pool width the run executed with (1 = sequential;
          defaults to 1 when parsing pre-multicore profiles) *)
  passes : pass_entry list;  (** in execution order *)
  rewrites : (string * int) list;  (** totals across the whole run, sorted *)
  sim : sim option;
  serve : serve option;
      (** present only for serving sessions (defaults to [None] when
          parsing pre-serving profiles) *)
  placed : placed option;
      (** present only for placed (heterogeneous) runs (defaults to
          [None] when parsing pre-placement profiles) *)
}

val to_json : t -> Json.t
val of_json : Json.t -> t
(** Inverse of {!to_json}. @raise Failure on a shape mismatch. *)

val to_table : t -> string
(** Human-readable report: a fixed-width per-pass table (duration, op
    counts, delta, rewrites) followed by rewrite totals and the simulator
    section when present. *)
