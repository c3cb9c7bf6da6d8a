(** Cost-model-driven heterogeneous placement (ROADMAP item 2).

    Partitions a kernel's stage pipeline — GEMV prelude, similarity
    scoring, top-k selection — across the CAM fabric, the resistive
    crossbar and the host, pricing every legal assignment plus explicit
    data-movement costs at the cut points. Legality rules
    (docs/PLACEMENT.md):

    - [Gemv] maps to the crossbar or the host;
    - [Score] always maps to the CAM and the host, and to the crossbar
      only for the dot-product metric (an analog GEMV against the
      stored rows);
    - [Select] maps to the host always, and to the CAM only when the
      preceding [Score] also ran there (the winner-take-all periphery
      reads the device-resident distance buffer);
    - a CAM [Score] hands its scores to a host [Select] only for the
      dot and cosine metrics, the two with a scores-form kernel.

    This module prices no device itself: a run of consecutive stages
    on the CAM or the crossbar costs what {!models.device_cost} says,
    which [Hetero] reads from the simulator's ledger of the kernel that
    runs it. The host is priced by the [Gpu_model] roofline. Movement
    is charged per cut: when adjacent stages land on distinct devices,
    the producing stage's output crosses {!link}. *)

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

type cost = { latency : float; energy : float }

val add : cost -> cost -> cost

type models = {
  device_cost : device -> stage list -> cost;
      (** the price of a maximal run of consecutive stages placed on
          [Cam] or [Xbar] *)
  gpu : Gpu_model.t;
  link : link;
}

val default_models : (device -> stage list -> cost) -> models
(** The given device prices, the Quadro RTX 6000 host roofline and a
    PCIe-class link (16 GB/s, 10 pJ/byte, 1 us per transfer). *)

type priced = {
  p_assignment : assignment;
  p_segments : (stage list * device * cost) list;
      (** maximal runs of consecutive stages on one device, in order *)
  p_movement : cost;  (** sum over every cut *)
  p_moved_bytes : int;
  p_total : cost;  (** segments + movement *)
}

val legal : stage list -> assignment -> bool

val enumerate : stage list -> assignment list
(** Every legal assignment, in a fixed deterministic order. *)

val single : stage list -> device -> assignment
(** The single-backend mapping convention: [device] on every stage
    where it is legal, host elsewhere. *)

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

val segment_name : stage list -> string
(** e.g. ["score+select"] *)

val table : ?objective:objective -> models -> stage list -> string
(** Human-readable candidate table (one line per legal assignment with
    latency, energy, moved bytes and the objective value; the chosen
    row is marked) — the [c4cam place] output. *)
