(** The process-wide compiled-artifact cache.

    Sessions serving the same kernel against the same architecture
    specification share one [C4cam.Driver.compiled]: the cache is keyed
    on a digest of [(source, spec)], so a [Session.create] for an
    already-compiled pair skips the whole pipeline. Compiled artifacts
    are immutable after compilation (the interpreter clones modules
    before mutating passes run), which is what makes sharing safe; the
    table itself is mutex-guarded so concurrent sessions may create
    freely. *)

val lookup :
  ?profile:Instrument.Collect.t ->
  spec:Archspec.Spec.t ->
  string ->
  C4cam.Driver.compiled * [ `Hit | `Miss ]
(** [lookup ?profile ~spec source] returns the cached artifact
    ([`Hit]), or compiles [source] (under [profile], outside the lock),
    inserts and returns it ([`Miss]). A hit returns the artifact the
    miss inserted — physically, hence structurally, equal.

    Misses are single-flight: when N domains race the same key, exactly
    one runs the pipeline and the rest block until its artifact lands
    (reported as [`Hit] — they did share the compile). A failing
    compile releases the key so a waiter can retry, and re-raises in
    the domain that compiled.
    @raise C4cam.Driver.Compile_error as {!C4cam.Driver.compile}. *)

val lower : C4cam.Driver.compiled -> int -> Ir.Func_ir.modul
(** [lower c r] is {!C4cam.Driver.lower_rows}[ c r], made once per
    artifact key and [r] and shared: the sessions of one sharded store
    run one module for a tail of [r] rows, so they share its compiled
    closures too. Single-flight like {!lookup}.
    @raise C4cam.Driver.Compile_error as {!C4cam.Driver.lower_rows}. *)

val length : unit -> int
(** Number of cached artifacts (in-flight compiles excluded; test
    hook). *)

val compiles : unit -> int
(** Total pipeline executions this cache has run since process start —
    monotonic; the compile-exactly-once contract is asserted by diffing
    it around a racing [lookup] burst (test hook). *)

val lowerings : unit -> int
(** Total {!lower} builds since process start (test hook). *)

val clear : unit -> unit
(** Drop every cached artifact and lowering (test hook). *)
