(** The [torch] dialect: the subset of ATen tensor operations used by
    CAM-amenable kernels, including the paper's frontend extension for
    [norm] and [topk] (Section III-C).

    All ops have value (tensor) semantics. Shape inference helpers are
    exported for use by the TorchScript frontend. *)

val return_name : string
(** ["func.return"] — terminator shared by all abstraction levels. *)

(** {1 Shape inference} *)

(** {1 Builders} — each appends one op and returns its result value(s). *)

val transpose :
  Ir.Builder.t -> Ir.Value.t -> d0:int -> d1:int -> Ir.Value.t

val matmul : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val mm : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val sub : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val div : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t

val div3 :
  Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
(** [div3 b x nq ns] — the fused ternary division of the paper's cosine
    pattern: divide the [Q x N] score matrix [x] by the per-query norms
    [nq] (Q elements) and per-stored norms [ns] (N elements). *)

val norm :
  Ir.Builder.t -> Ir.Value.t -> p:int -> dim:int -> keepdim:bool ->
  Ir.Value.t

val topk :
  Ir.Builder.t -> Ir.Value.t -> k:int -> dim:int -> largest:bool ->
  Ir.Value.t * Ir.Value.t
(** Returns [(values, indices)]; indices are an [i32] tensor. *)

val return_ : Ir.Builder.t -> Ir.Value.t list -> unit

val register : unit -> unit
(** Register the dialect ops in {!Ir.Registry}. Idempotent. *)
