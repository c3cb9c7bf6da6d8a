(** Cost-model-driven heterogeneous placement (ROADMAP item 2).

    Partitions a kernel's stage pipeline — GEMV prelude, similarity
    scoring, top-k selection — across the CAM fabric, the resistive
    crossbar and the host, pricing every legal assignment with the
    backends' own latency/energy models plus explicit data-movement
    costs at the cut points. Legality rules (docs/PLACEMENT.md):

    - [Gemv] maps to the crossbar or the host;
    - [Score] always maps to the CAM and the host, and to the crossbar
      only for the dot-product metric (an analog GEMV against the
      stored rows);
    - [Select] maps to the host always, and to the CAM only when the
      preceding [Score] also ran there (the winner-take-all periphery
      reads the device-resident distance buffer).

    Movement is charged per cut: when adjacent stages land on distinct
    devices, the producing stage's output crosses {!link}. Execution
    of a chosen split lives in [Hetero]; this module is the model. *)

type device = Cam | Xbar | Host

val device_name : device -> string

type objective = Latency | Energy | Edp

val objective_name : objective -> string
val objective_of_string : string -> (objective, string) result

type stage =
  | Gemv of { m : int; k : int; n : int }
  | Score of { q : int; n : int; d : int; metric : Dialects.Cim.metric }
  | Select of { q : int; n : int; k : int }

type assignment = device list

type link = { bw : float; e_per_byte : float; t_fixed : float }

type models = {
  cam_spec : Archspec.Spec.t;
  cam_tech : Camsim.Tech.t;
  xbar_spec : Xbar.spec;
  xbar_tech : Xbar.tech;
  gpu : Gpu_model.t;
  link : link;
}

val default_models : ?tech:Camsim.Tech.t -> Archspec.Spec.t -> models

type cost = { latency : float; energy : float }

val add : cost -> cost -> cost

type priced = {
  p_assignment : assignment;
  p_stages : (stage * device * cost) list;
  p_movement : cost;  (** sum over every cut *)
  p_moved_bytes : int;
  p_total : cost;  (** stages + movement *)
}

val legal : stage list -> assignment -> bool

val enumerate : stage list -> assignment list
(** Every legal assignment, in a fixed deterministic order. *)

val single : stage list -> device -> assignment
(** The single-backend mapping convention: [device] on every stage
    where it is legal, host elsewhere. *)

val stage_cost : models -> stage -> device -> cost
(** @raise Invalid_argument on an illegal (stage, device) pair. *)

val stage_out_bytes : stage -> int
val movement_cost : models -> bytes:int -> cost

val price : models -> stage list -> assignment -> priced
(** @raise Invalid_argument on an illegal assignment. *)

val choose :
  ?objective:objective ->
  ?filter:(assignment -> bool) ->
  models ->
  stage list ->
  priced
(** Deterministic argmin over [enumerate] (optionally [filter]ed);
    defaults to the [Energy] objective.
    @raise Invalid_argument when no legal assignment survives. *)

val assignment_name : stage list -> assignment -> string

val table : ?objective:objective -> models -> stage list -> string
(** Human-readable candidate table (one line per legal assignment with
    latency, energy, moved bytes and the objective value; the chosen
    row is marked) — the [c4cam place] output. *)

val pass : ?objective:objective -> Archspec.Spec.t -> Ir.Pass.t
(** ["cim-place"]: annotates fused similarity ops with [place_score] /
    [place_select] device attributes chosen under [objective]. *)
