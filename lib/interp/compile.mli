(** The interpreter engine.

    Pre-compiles a function's region tree into arrays of OCaml closures
    (threaded code): op-name dispatch, attribute decoding and operand
    resolution happen once per op at compile time, SSA values are
    renamed to dense integer slots so the environment is a flat
    [Rtval.t array]. Every loop, [scf.parallel] included, runs its
    iterations in order on the calling domain.
    Compilation is memoized per domain on {!Ir.Op.uid}, so repeated runs
    of the same module pay it once; the IR is treated as frozen once a
    function has run.

    [test/test_compile.ml] checks results, simulated latency/energy,
    per-dialect execution counters and failure messages against
    independent oracles. *)

val run_fn :
  ?sim:Camsim.Simulator.t -> ?xsim:Xbar.t -> ?pool:Ops.Pool.t ->
  Ir.Func_ir.func -> Rtval.t list -> Ops.outcome
(** Compile (or fetch from the memo) and execute one function. The
    caller has already resolved the function and checked arity —
    [Machine.run] is the public entry point. [pool] lets a serving
    session reuse the result buffers it released (default: every
    [memref.alloc] is fresh). Each run draws a fresh
    {!Camsim.Scratch.fresh_stamp} for the query windows its
    [cam.search] ops read in place, so no run is answered with packs
    another run filled; an in-run write into a buffer
    ([memref.store], [cam.merge_partial], [crossbar.accumulate]) drops
    the domain's query slot over it.
    @raise Ops.Runtime_error on unsupported ops and runtime type or
    bounds errors, at the point the failing op executes. *)
