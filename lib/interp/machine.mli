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

    Execution goes through the closure-compiling engine ({!Compile}),
    which pre-compiles the region tree into slot-indexed threaded code.
    [test/test_compile.ml] checks it against independent oracles: a
    pure evaluator of random scf nests, the VM lowering ([lib/vm]) and
    a brute-force host top-k. See [docs/INTERPRETER.md]. *)

type outcome = Ops.outcome = {
  results : Rtval.t list;
  latency : float;
  ops_executed : (string * int) list;
      (** per-dialect executed-op counts, sorted by dialect name;
          deterministic — identical for any [jobs] value *)
}

exception Runtime_error of string

val run :
  ?sim:Camsim.Simulator.t -> ?xsim:Xbar.t -> ?pool:Ops.Pool.t ->
  Ir.Func_ir.modul -> string -> Rtval.t list -> outcome
(** [run m fn args] executes function [fn] of module [m]. A CAM
    simulator is required iff the function contains [cam] ops; a
    crossbar iff it contains [crossbar] ops. [?pool] supplies the
    {!Ops.Pool.t} that [memref.alloc] draws from, so buffers a caller
    released after an earlier run are reused; by default every
    allocation is fresh.
    @raise Runtime_error on missing functions, arity mismatches, or
    unsupported ops. *)
