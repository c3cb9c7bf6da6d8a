(** Types of SSA values in the C4CAM intermediate representation.

    The type system is a small subset of MLIR's builtin types plus opaque
    dialect handle types (printed [!dialect.name]), which model device
    handles such as [!cam.bank_id]. *)

type elem =
  | F32
  | F64
  | I1
  | I32
  | I64
      (** Element types of tensors and memrefs, and of scalar values. *)

type t =
  | Scalar of elem  (** a plain scalar such as [f32] or [i1] *)
  | Index  (** loop induction variables and sizes *)
  | Tensor of int list * elem  (** immutable value-semantics tensor *)
  | Memref of int list * elem  (** mutable buffer with static shape *)
  | Handle of string  (** opaque dialect handle, e.g. ["cam.bank_id"] *)
  | None_type  (** used by ops returning nothing useful *)

val equal : t -> t -> bool

val elem_to_string : elem -> string
val to_string : t -> string

val elem_of_string : string -> elem option
(** Inverse of {!elem_to_string}. *)

val tensor : int list -> elem -> t
val memref : int list -> elem -> t

val shape : t -> int list
(** Shape of a tensor or memref. @raise Invalid_argument otherwise. *)

val element : t -> elem
(** Element type of a scalar, tensor or memref.
    @raise Invalid_argument otherwise. *)

val num_elements : t -> int
(** Product of the shape dims of a tensor/memref; 1 for scalars. *)

val is_shaped : t -> bool
(** [true] for tensors and memrefs. *)

val with_shape : t -> int list -> t
(** Replace the shape of a shaped type, keeping kind and element type. *)
