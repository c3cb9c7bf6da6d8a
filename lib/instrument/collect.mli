(** The mutable profile collector threaded through the compiler.

    A collector is created by whoever wants a profile (the CLI, the
    bench harness, a test), handed to [Driver.compile ?profile] /
    [Ir.Pass.run_pipeline ?profile], and snapshotted with {!profile}
    when done.

    Rewrite-rule counters use an ambient current collector so that deep
    rewriting code ([Ir.Rewriter], the fusion rules) can report without
    every helper growing a parameter: the pass manager installs the
    collector around each pass body with {!with_current}, and {!note} is
    a no-op when no collector is installed (i.e. profiling is off). *)

type t

val create : unit -> t
(** Also records the creation time; {!profile} reports [total_s]
    relative to it. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)

val record_pass : t -> Profile.pass_entry -> unit
(** Append a pass entry (entries are returned in insertion order). *)

val set_frontend : t -> float -> unit

val set_jobs : t -> int -> unit
(** Record the domain-pool width the run executes with (clamped to at
    least 1); lands in [Profile.jobs]. *)

val set_sim : t -> Profile.sim -> unit

val set_serve : t -> Profile.serve -> unit
(** Record (or overwrite with fresh cumulative values) the
    serving-session section; [Serve.Session] calls this after every
    served batch. *)

val set_placement : t -> Profile.placed -> unit
(** Record the heterogeneous-placement decision and its per-device
    cost breakdown; [Hetero] calls this for placed runs. *)

val counters : t -> (string * int) list
(** Sorted snapshot of all counters. *)

val profile : t -> Profile.t
(** Immutable snapshot; the collector stays usable afterwards. *)

(** {1 Ambient collector} *)

val with_current : t option -> (unit -> 'a) -> 'a
(** Install the collector as ambient for the duration of the callback
    (exception-safe; restores the previous one). [None] uninstalls.
    The ambient slot is domain-local: a collector installed on one
    domain is invisible to others, so parallel compiles never cross
    their counters. *)

val note : ?n:int -> string -> unit
(** Increment a named counter (default by 1) of the ambient collector;
    no-op when none is installed. *)
