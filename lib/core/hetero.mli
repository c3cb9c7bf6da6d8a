(** Heterogeneous execution: multi-kernel task parallelism and
    cost-model-driven placed runs (Section II-C's RecSys scenario and
    the conclusions' heterogeneous systems: "each stage executes
    different tasks on different banks in parallel").

    Two layers:

    - {b task parallelism}: a TorchScript source may define several
      kernels; each is compiled against its own architecture
      specification (its own device), and a batch of compiled kernels
      runs concurrently — every kernel gets its own simulator (its own
      banks), energies add, and the batch latency is the maximum of
      the kernels' latencies;
    - {b placed runs}: a single kernel's stage pipeline is split
      across CAM, crossbar and host as decided by [Passes.Placement]
      (or pinned by the run config), executed stage by stage with
      explicit data movement, and every executable split reproduces
      the all-CAM reference results bit for bit
      (see docs/PLACEMENT.md). *)

val compile_module :
  specs:(string * Archspec.Spec.t) list -> string -> Driver.compiled list
(** Compile every function of the source, looking up each function's
    spec by name. @raise Driver.Compile_error when a function has no
    spec or any single-kernel compilation fails. Results follow the
    source order. *)

type task = {
  t_compiled : Driver.compiled;
  t_queries : float array array;
  t_stored : float array array;
}

type outcome = {
  per_task : Driver.run_result list;
  latency : float;  (** max over tasks — they run on different banks *)
  sequential_latency : float;  (** sum — the one-device baseline *)
  energy : float;  (** sum over tasks *)
}

val run_concurrent : ?config:Driver.Run_config.t -> task list -> outcome
(** The config applies to every task's run (each still gets its own
    simulator). Tasks fan out across the ambient [Parallel] pool —
    one private simulator per task, results folded in task order, so
    the outcome is byte-identical at every [--jobs] value. *)

(** {1 Placed single-kernel runs} *)

val stages_of_info : Driver.kernel_info -> Passes.Placement.stage list
(** The pipeline of a compiled kernel: [Score; Select] for a top-k
    kernel, [Score] for the scores form. *)

val models : ?tech:Camsim.Tech.t -> Driver.compiled -> Passes.Placement.models
(** Placement's prices for the pipeline of a compiled kernel, optionally
    behind a GEMV prelude: a CAM or crossbar segment costs the ledger of
    the kernel that runs it, simulated on zero rows ({!Driver.price},
    {!Driver.price_crossbar}) — the kernel itself for its whole
    pipeline, its scores form for a CAM score feeding a host select,
    and one [matmul] per crossbar GEMV or dot score. Each (device,
    stages) segment and each crossbar stage is price-run once per
    [models] value, however many candidates share it. *)

val executable_placed :
  queries:float array array -> stored:float array array ->
  Passes.Placement.assignment -> bool
(** The run-time condition on a legal split of a [Score; Select]
    kernel: a crossbar score recovers the CAM's Hamming distances as
    [|q| + |s| - 2 q.s], so it needs 0/1 data. *)

type placed_result = {
  pr_values : float array array;
  pr_indices : int array array;
  pr_placement : string;  (** e.g. ["score=cam select=host"] *)
  pr_candidates : int;  (** executable assignments considered *)
  pr_priced : Passes.Placement.priced;
      (** the ledgers of the kernels this run executed, with the host
          stages and movement, composed by [Passes.Placement.price] *)
  pr_cam : Driver.run_result option;
      (** the underlying CAM run when the score stage executed on CAM
          (full run for all-CAM, scores run for a [(cam, host)] split) *)
}

val run_placed :
  ?config:Driver.Run_config.t ->
  Driver.compiled ->
  queries:float array array ->
  stored:float array array ->
  placed_result
(** Execute a top-k kernel under [config.placement]: [`Cam] (default)
    is the homogeneous reference, [`Fixed] pins the (score, select)
    devices, [`Auto] lets [Passes.Placement.choose] pick under
    [config.place_objective] among executable assignments. Results are
    byte-identical across placements, and the reported total equals
    [Passes.Placement.price] of {!models} (tested). When the config
    carries a profile collector the placement decision and per-device
    cost breakdown are folded in ([Profile.placed]).
    @raise Driver.Compile_error on a non-top-k kernel or a pinned
    placement the runner cannot execute. *)

(** {1 The RecSys pipeline}

    GEMV feature projection, Euclidean similarity scoring, top-k
    selection — three stages over three fabrics, the workload the
    placement pass exists for. *)

val recsys_stages :
  Workloads.Recsys.t -> k:int -> Passes.Placement.stage list

val recsys_kernel :
  spec:Archspec.Spec.t -> data:Workloads.Recsys.t -> k:int -> Driver.compiled
(** The [knn_euclidean] kernel that runs the score and select stages on
    the CAM, on an MCAM cell of [spec] (Euclidean needs multi-bit
    distances); {!models} of it prices the pipeline. *)

val run_recsys :
  ?config:Driver.Run_config.t ->
  spec:Archspec.Spec.t ->
  data:Workloads.Recsys.t ->
  k:int ->
  unit ->
  placed_result
(** Run the three-stage pipeline under [config.placement] ([`Fixed]
    pins one device per stage, [`Auto] searches with
    [Passes.Placement.choose]). The CAM score stage forces an MCAM
    cell (Euclidean needs multi-bit distances); results are identical
    across all legal assignments (tested).
    @raise Driver.Compile_error on a pin of the wrong length or a
    non-executable assignment. *)
