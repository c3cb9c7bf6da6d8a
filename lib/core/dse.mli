(** Design-space exploration driver (Section IV-C): compile-and-run a
    workload over architecture configurations without recoding the
    application — the retargetability demonstration of the paper. *)

type measurement = {
  config : string;  (** e.g. ["cam-base 32x32"] *)
  latency : float;
  energy : float;
  power : float;
  edp : float;  (** energy-delay product, J.s *)
  accuracy : float;  (** fraction of queries classified correctly *)
  subarrays : int;
  banks : int;
  search_ops : int;  (** simulator activity counters, from the run's
                         [Camsim.Stats] ledger *)
  query_cycles : int;
  write_ops : int;
  kernel_binary : int;  (** per-tier row-dispatch counts (docs/KERNELS.md) *)
  kernel_nibble : int;
  kernel_generic : int;
  kernel_early_exit : int;
  n_ops_executed : int;
      (** total interpreter ops executed (all dialects) — the
          deterministic work proxy; identical for any jobs value *)
}

val config_name : Archspec.Spec.t -> string

val top1_accuracy : int array array -> int array -> float
(** Fraction of rows whose first returned index equals the label. *)

val hdc :
  ?config:Driver.Run_config.t -> ?bits:int -> spec:Archspec.Spec.t ->
  data:Workloads.Hdc.synthetic -> unit -> measurement
(** Compile the HDC dot-similarity kernel for [spec] and run it on the
    simulator with the given prototypes/queries, under [config]
    (defaults to {!Driver.Run_config.default}). [bits] overrides the
    spec's cell bit width (multi-bit validation runs). *)

val hdc_sweep :
  ?config:Driver.Run_config.t -> ?bits:int -> specs:Archspec.Spec.t list ->
  data:Workloads.Hdc.synthetic -> unit -> measurement list
(** {!hdc} over a list of candidate configurations, evaluated across
    the ambient {!Parallel} pool — one private compile + simulator per
    candidate, results in [specs] order regardless of the schedule (so
    every measurement, including the activity counters, is identical
    for any jobs value). *)

val placed_measurement :
  Archspec.Spec.t -> Hetero.placed_result -> accuracy:float -> measurement
(** Measurement of a placed (heterogeneous) run: latency/energy/power/
    edp are the split's totals (device ledgers, host roofline and
    movement), the activity counters come from
    the underlying CAM run when the score stage executed there (zeros
    otherwise), and the config name carries the placement, e.g.
    ["cam-base 32x32 score=cam select=host"]. *)

val placement_sweep :
  ?config:Driver.Run_config.t -> spec:Archspec.Spec.t ->
  data:Workloads.Hdc.synthetic -> unit -> measurement list
(** Measure the HDC kernel under every executable (score, select)
    placement on [spec] — the placement axis of the design space.
    Assignments run across the ambient {!Parallel} pool in the fixed
    [Passes.Placement.enumerate] order; results (including the
    returned top-1 indices behind each accuracy) are identical for
    any jobs value. *)

val measure :
  ?config:Driver.Run_config.t -> spec:Archspec.Spec.t ->
  shape:Workloads.Registry.shape -> Workloads.Registry.entry -> measurement
(** Measure any registry workload on one architecture, after applying
    the entry's [fix_spec]. [Kernel] entries compile and run through
    the normal driver (a pre-stage — the MLP's layer-1 device — folds
    its simulated cost and counters into the result); [Direct] entries
    report the workload's own simulator ledger (latency 0: they have
    no interpreter latency model); [Range] entries execute through
    {!Acam}. Accuracy is always against the workload's own oracle. *)

val registry_sweep :
  ?config:Driver.Run_config.t -> specs:Archspec.Spec.t list ->
  shape:Workloads.Registry.shape -> Workloads.Registry.entry ->
  measurement list
(** {!measure} over candidate architectures across the ambient
    {!Parallel} pool, results in [specs] order for any jobs value. *)

val knn :
  ?config:Driver.Run_config.t -> spec:Archspec.Spec.t ->
  train:Workloads.Dataset.t ->
  queries:float array array -> labels:int array -> k:int -> unit ->
  measurement
(** Compile the batched-KNN kernel (Euclidean, MCAM) and run it;
    accuracy is majority-vote over the returned neighbours. *)

val iso_capacity_spec :
  side:int -> Archspec.Spec.optimization -> Archspec.Spec.t
(** Iso-capacity configuration of Section IV-C2: square subarrays of
    the given side with 2^16 cells per array (so the subarrays-per-array
    count varies), paper hierarchy above. *)

type gpu_comparison = {
  gpu_latency : float;
  gpu_energy : float;
  cam_latency : float;
  cam_energy : float;  (** CAM arrays + peripherals only *)
  cam_system_energy : float;
      (** including the host/system power envelope — what the paper's
          end-to-end comparison actually measures *)
  speedup : float;
  energy_improvement : float;  (** GPU energy over CIM-system energy *)
}

val gpu_comparison_hdc :
  ?gpu:Gpu_model.t -> ?system_power:float -> spec:Archspec.Spec.t ->
  data:Workloads.Hdc.synthetic -> unit -> gpu_comparison
(** [system_power] (default 190 W) is the host+chip envelope drawn while
    the CIM system executes; the paper's energy improvement is
    GPU-energy over CIM-system energy ("CAMs contribute minimally"). *)
