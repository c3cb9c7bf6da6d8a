(** Architecture auto-tuning on top of the DSE driver — the search the
    paper's conclusions point to ("determining the optimal mapping
    strategy ... remains a subject for future research"), built from the
    knobs C4CAM already exposes: subarray geometry and the optimization
    target.

    Candidates are evaluated by compiling and running the workload on
    the simulator (no analytical shortcuts), so the tuner sees exactly
    what a user would measure. *)

type objective =
  | Min_latency
  | Min_energy
  | Min_power
  | Min_edp
  | Min_area  (** chip area of the allocated banks *)

val objective_to_string : objective -> string

type candidate = {
  spec : Archspec.Spec.t;
  measurement : Dse.measurement;
  area_mm2 : float;  (** chip area of the banks the mapping allocated *)
}

val value : objective -> candidate -> float
(** The scalar the objective minimises. *)

val evaluate_hdc :
  ?config:Driver.Run_config.t ->
  ?sides:int list ->
  ?optimizations:Archspec.Spec.optimization list ->
  ?placements:Passes.Placement.assignment list ->
  data:Workloads.Hdc.synthetic ->
  unit ->
  candidate list
(** Compile-and-run the HDC workload over the candidate grid
    (default: sides 16..256, all four optimizations, the all-CAM
    placement), each candidate under [config]. [placements] adds a
    (score, select) device axis: [[Cam; Cam]] takes the plain DSE
    path, anything else runs through [Hetero.run_placed] with that
    split pinned (each must be legal and executable for the workload —
    see [Hetero.executable_placed]). The area model falls back to
    [Camsim.Tech.fefet_45nm] when the config carries no technology.
    Candidates are evaluated across the ambient [Parallel] pool, one
    private simulator each; the returned list keeps the sides-outer /
    optimizations-inner / placements-innermost order for any jobs
    value. *)

val best : objective -> candidate list -> candidate
(** @raise Invalid_argument on an empty candidate list. *)

val pareto :
  (candidate -> float) -> (candidate -> float) -> candidate list ->
  candidate list
(** Two-objective Pareto front (both minimised), sorted by the first
    objective. A candidate survives iff no other candidate is at least
    as good on both axes and strictly better on one. *)
