(** The end-to-end C4CAM driver: TorchScript source in, IR at every
    abstraction level out, with execution entry points for
    - the torch-level software reference,
    - the cim-level partitioned software reference, and
    - the cam-level run on the CAM simulator (energy + latency).

    All three produce the same rankings on the same inputs; the tests
    rely on this to validate the compiler functionally. *)

type kernel_info = {
  q : int;  (** query rows *)
  n : int;  (** stored rows *)
  d : int;  (** dimensionality *)
  k : int;  (** selection size ([n] for the scores form) *)
  metric : Dialects.Cim.metric;
  output : [ `Topk | `Scores ];
  query_arg : int;  (** positional index of the query argument *)
  stored_arg : int;
}

type compiled = {
  spec : Archspec.Spec.t;
  source : string;
  torch_ir : Ir.Func_ir.modul;
  cim_ir : Ir.Func_ir.modul;
      (** fused + partitioned, in the compact form (see
          {!Passes.Cim_partition.expand}) *)
  cam_ir : Ir.Func_ir.modul;  (** mapped + optimized *)
  fn_name : string;
  info : kernel_info;
}

exception Compile_error of string

val clone_module : Ir.Func_ir.modul -> Ir.Func_ir.modul
(** Deep copy via print/parse (passes mutate IR in place). *)

val compile :
  ?profile:Instrument.Collect.t -> spec:Archspec.Spec.t -> string -> compiled
(** @raise Compile_error wrapping frontend/pass failures.

    With [profile], the frontend is timed and every pass records its
    duration, op-count deltas and rewrite counters into the collector
    (see {!Ir.Pass.run} and [docs/OBSERVABILITY.md]). *)

val compile_traced :
  ?profile:Instrument.Collect.t -> spec:Archspec.Spec.t -> string ->
  compiled * (string * string) list
(** Like {!compile}, additionally returning the printed IR after the
    frontend and after every pass — the full lowering story of
    Figures 4-6, one snapshot per pass. Here cim-partition also builds
    the expanded tile program, which its snapshot and the returned
    [cim_ir] hold; the cam level is the same as {!compile}'s. *)

val lower_rows : compiled -> int -> Ir.Func_ir.modul
(** [lower_rows c r] is [c]'s cam-level module for [r] query rows, for
    [1 <= r <= c.info.q]: the cam passes of {!compile} re-run on
    [c.cim_ir] with the query extent set to [r]. Its tile nest, device
    allocations and stored-row writes equal [c.cam_ir]'s, which depend
    only on [n], [d] and the spec; only the query operand, the per-tile
    reads and the distance buffer are [r] rows tall. [c] is only read,
    so domains may lower one artifact concurrently.
    @raise Invalid_argument when [r] is out of range.
    @raise Compile_error as {!compile}. *)

val stage_texts : compiled -> (string * string) list
(** [(stage, printed IR)] for torch, cim and cam levels — the material
    of Figures 4-6. The cim level is printed with its expanded tile
    program, built on a copy. *)

type run_result = {
  values : float array array;  (** [q x k] *)
  indices : int array array;  (** [q x k]; row indices into stored *)
  scores : float array array option;  (** [`Scores] kernels: [q x n] *)
  latency : float;  (** seconds *)
  energy : float;  (** joules *)
  power : float;  (** watts, energy/latency *)
  stats : Camsim.Stats.t;
  ops_executed : (string * int) list;
      (** interpreter ops executed per dialect, sorted by name —
          deterministic across jobs values; [[]] for the
          register VM, which has its own instruction stream *)
}

(** Everything that parameterizes a run, as one value.

    Replaces the old option soup ([?profile ?tech ?defect_rate
    ?defect_seed ?trace]) with a record that can be built
    once and shared between one-shot runs, DSE sweeps and serving
    sessions. Build with pipelines over {!Run_config.default}:

    {[
      Driver.Run_config.(default |> with_tech t |> with_defects 0.01)
    ]} *)
module Run_config : sig
  type placement =
    [ `Cam
    | `Auto
    | `Fixed of Passes.Placement.assignment ]
  (** Where a placed pipeline's stages run: the homogeneous all-CAM
      path, a cost-model decision under [place_objective], or a pinned
      device per stage. Honoured by [Hetero.run_placed] and
      [Hetero.run_recsys]; {!run_cam} itself is the all-CAM executor
      and ignores it (see [docs/PLACEMENT.md]). *)

  type t = {
    profile : Instrument.Collect.t option;
        (** fold compile/run stats into this collector *)
    tech : Camsim.Tech.t option;  (** [None] = simulator default *)
    defect_rate : float option;
    defect_seed : int option;
    trace : Camsim.Trace.t option;
    placement : placement;
    place_objective : Passes.Placement.objective;
  }

  val default : t
  (** No profiling, no trace, default technology, zero defects,
      [`Cam] placement under the [Energy] objective. *)

  val with_profile : Instrument.Collect.t -> t -> t
  val with_tech : Camsim.Tech.t -> t -> t

  val with_defects : ?seed:int -> float -> t -> t
  (** [with_defects ?seed rate t] enables defect injection; [seed]
      defaults to whatever the config already carries (and ultimately
      to the simulator's default). *)

  val with_trace : Camsim.Trace.t -> t -> t

  val with_placement : placement -> t -> t
  val with_place_objective : Passes.Placement.objective -> t -> t
end

val run_cam :
  ?config:Run_config.t -> compiled ->
  queries:float array array -> stored:float array array -> run_result
(** Execute the cam-level module on a fresh simulator. [queries] are
    [q] rows of [d] values; [stored] are [n] rows. The config's defect
    and trace fields are forwarded to {!Camsim.Simulator.create}; with
    [config.profile], the run's latency, energy breakdown and activity
    counters are folded into the collector's simulator section. *)

val price : ?tech:Camsim.Tech.t -> compiled -> run_result
(** {!run_cam} on zero-filled operands of the kernel's declared shapes
    under [tech]: the simulator's ledger of one run. CAM costs do not
    depend on the stored or query values, so latency, energy, the
    search/write/query-cycle counts and [ops_executed] equal those of
    a run on any data (tested). *)

(** {1 The pieces [run_cam] composes} — exported for [Serve.Session],
    which runs a pinned kernel per query batch against its own
    simulator (see [docs/SERVING.md]), and for [Acam]. *)

val create_sim : Run_config.t -> Archspec.Spec.t -> Camsim.Simulator.t

val wrap_rows : float array array -> Interp.Rtval.t
(** Rows as a contiguous row-major runtime buffer. *)

val decode_results :
  kernel_info -> Interp.Rtval.t list ->
  float array array * int array array * float array array option
(** The [values], [indices] and [scores] of {!run_result}, copied out
    of a kernel's raw results. *)

val fold_sim_stats :
  Instrument.Collect.t -> latency:float -> energy:float ->
  ops_executed:(string * int) list -> Camsim.Stats.t -> unit
(** Fold a simulator activity ledger into the collector's simulator
    section (overwrites any previous fold — pass cumulative values). *)

(** {1 The crossbar target} — Figure 3's sibling device branch: a
    single-matmul kernel mapped onto resistive-crossbar tiles instead of
    CAM subarrays. *)

type crossbar_compiled = {
  x_spec : Xbar.spec;
  x_source : string;
  x_torch_ir : Ir.Func_ir.modul;
  x_ir : Ir.Func_ir.modul;  (** crossbar-mapped, bufferized *)
  x_fn : string;
  x_m : int;
  x_k : int;
  x_n : int;
  x_inputs_arg : int;
  x_weights_arg : int;
}

val compile_crossbar :
  xspec:Xbar.spec -> string -> crossbar_compiled
(** @raise Compile_error unless the kernel is a single
    [torch.matmul]/[mm] (plus return). *)

type crossbar_result = {
  product : float array array;  (** the [m x n] result *)
  x_latency : float;
  x_energy : float;
  x_stats : Xbar.stats;
}

val run_crossbar :
  ?tech:Xbar.tech -> crossbar_compiled -> inputs:float array array ->
  weights:float array array -> crossbar_result

val price_crossbar : crossbar_compiled -> crossbar_result
(** {!run_crossbar} on zero-filled operands under the default tech: the
    crossbar's ledger, which does not depend on the values either. *)

val to_vm : compiled -> Vm.Isa.program
(** Lower the cam-level module to the flat runtime ISA (the llvm-stage
    stand-in). *)

val run_vm :
  ?config:Run_config.t -> compiled -> queries:float array array ->
  stored:float array array -> run_result
(** Like {!run_cam} but through {!to_vm} and the {!Vm.Exec} executor
    instead of the structured-IR interpreter. Results, latency and
    energy are identical to {!run_cam} (tested). *)

val run_reference :
  compiled -> queries:float array array -> stored:float array array ->
  Interp.Rtval.t list
(** Torch-level functional execution. *)

val run_cim_software :
  compiled -> queries:float array array -> stored:float array array ->
  Interp.Rtval.t list
(** Cim-level execution of the expanded partitioned form, built on a
    copy (exercises slices, partial similarities and merges in
    software). *)
