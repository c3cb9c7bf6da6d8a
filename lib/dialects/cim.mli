(** The [cim] dialect: device-agnostic compute-in-memory abstraction
    (Section III-D1), extended for CAM accelerators.

    The programming model is [acquire] / [execute] / [release]. An
    [execute] op owns a single-block region whose ops reference outer SSA
    values freely; the region is terminated by [cim.yield] and the
    yielded values become the [execute] results. *)

val acquire_name : string
val execute_name : string
val release_name : string
val yield_name : string
val similarity_name : string
val similarity_partial_name : string
val slice_name : string
val merge_partial_name : string
val select_best_name : string
val partitioned_similarity_name : string

val compute_op_names : string list
(** The cim twins of the torch compute ops
    (["cim.transpose"], ["cim.matmul"], ...). *)

val torch_twin : string -> string option
(** Map a torch op name to its cim twin, e.g.
    ["torch.matmul"] -> [Some "cim.matmul"]. *)

type metric = Dot | Euclidean | Cosine | Hamming

val metric_to_attr : metric -> Ir.Attr.t
val metric_of_attr : Ir.Attr.t -> metric
(** @raise Invalid_argument on unknown metric symbols. *)

(** {1 Builders} *)

val acquire : Ir.Builder.t -> device:string -> Ir.Value.t

val yield : Ir.Builder.t -> Ir.Value.t list -> unit
val release : Ir.Builder.t -> Ir.Value.t -> unit

val similarity_partial :
  Ir.Builder.t -> query:Ir.Value.t -> stored:Ir.Value.t -> metric:metric ->
  Ir.Value.t
(** Partial distance block: query is [Q x C], stored is [N' x C]; result
    is the [Q x N'] distance tensor for this tile. *)

val slice :
  Ir.Builder.t -> Ir.Value.t -> offsets:int list -> sizes:int list ->
  Ir.Value.t

val merge_partial_h : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
(** Horizontal merge: add a tile's partial distances into the
    accumulator ([acc + part], value semantics). *)

val merge_partial_v :
  Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> offset:int -> Ir.Value.t
(** Vertical merge: write a row-chunk accumulator into the global
    distance tensor at row [offset]. *)

val select_best :
  Ir.Builder.t -> Ir.Value.t -> k:int -> largest:bool ->
  Ir.Value.t * Ir.Value.t

val similarity_scores_name : string
(** Fused form of the 6-op cosine pattern: returns the full [Q x N]
    score (distance) matrix instead of a top-k selection. *)

val zeros_name : string

val zeros : Ir.Builder.t -> int list -> Ir.Value.t
(** Zero-filled [f32] tensor, seeding partial-result accumulation. *)

val reshape_name : string

val reshape : Ir.Builder.t -> Ir.Value.t -> int list -> Ir.Value.t
(** Same-element-count shape change (e.g. squeezing the broadcast
    dimension of a batched KNN query). *)

val register : unit -> unit
