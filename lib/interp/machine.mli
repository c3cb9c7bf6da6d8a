(** The IR interpreter.

    Executes modules at any abstraction level:
    - torch / cim ops run functionally on the host (zero latency) — the
      software reference path;
    - cam / scf / memref ops run against a {!Camsim.Simulator}, which
      accounts energy, while the interpreter composes latency
      structurally: statements in sequence and [scf.for] iterations add
      up, [scf.parallel] iterations combine by maximum. This is exactly
      how the architecture spec's access modes shape the performance of
      the generated code.

    Two engines implement these semantics: a closure-compiling engine
    ({!Compile}) that pre-compiles the region tree into slot-indexed
    threaded code, and the tree-walking reference engine in this module
    that re-interprets the tree on every execution. They are
    byte-identical in everything but wall-clock time — results,
    latency/energy, per-dialect counters, failure messages
    (differentially tested in [test/test_compile.ml]). See
    [docs/INTERPRETER.md]. *)

type outcome = Ops.outcome = {
  results : Rtval.t list;
  latency : float;
  ops_executed : (string * int) list;
      (** per-dialect executed-op counts, sorted by dialect name;
          deterministic — identical across engines and [jobs] values *)
}

exception Runtime_error of string

val run :
  ?sim:Camsim.Simulator.t -> ?xsim:Xbar.t -> ?qcache:Ops.Qcache.t ->
  ?pool:Ops.Pool.t -> ?precompile:bool -> Ir.Func_ir.modul -> string ->
  Rtval.t list -> outcome
(** [run m fn args] executes function [fn] of module [m]. A CAM
    simulator is required iff the function contains [cam] ops; a
    crossbar iff it contains [crossbar] ops. [?precompile] selects the
    engine: the closure-compiled one ([true], the default) or the
    tree-walking reference ([false]); callers that take a
    [Driver.Run_config.t] map its [engine] field here — there is no
    process-global engine flag. [?qcache] supplies a query-pack cache
    that outlives the run (a serving session passes its own so repeated
    batches reuse extracted rows); by default each run gets a fresh
    cache. [?pool] supplies the {!Ops.Pool.t} that [memref.alloc]
    draws from, so buffers a caller released after an earlier run are
    reused; by default every allocation is fresh.
    @raise Runtime_error on missing functions, arity mismatches, or
    unsupported ops. *)
