(** Runtime values of the IR interpreter.

    Tensors have value semantics (torch/cim levels); buffers are
    mutable, strided views over shared storage (memref level after
    bufferization). Index tensors are stored as floats and converted on
    read-out. *)

type tensor = { t_shape : int list; t_data : float array }

type buffer = {
  b_shape : int list;
  b_strides : int list;
  b_offset : int;
  b_data : float array;  (** shared with the views' parents *)
}

type t =
  | Tensor of tensor
  | Buffer of buffer
  | Index of int
  | Scalar of float
  | Boolean of bool
  | Handle of Camsim.Simulator.id
  | Xtile of Xbar.tile
  | Unit

exception Type_error of string

val tensor : int list -> float array -> t
(** @raise Type_error when sizes disagree. *)

val tensor_of_rows : float array array -> t
(** Rank-2 tensor from rows. *)

val zeros_tensor : int list -> t

val fresh_buffer : int list -> buffer
(** Contiguous zero buffer. *)

val buffer_of_rows : float array array -> buffer

val as_tensor : t -> tensor
val as_buffer : t -> buffer
val as_index : t -> int
val as_bool : t -> bool
val as_handle : t -> Camsim.Simulator.id
val as_xtile : t -> Xbar.tile

val row_major_strides : int list -> int list
val numel : int list -> int

val buffer_get : buffer -> int list -> float
val buffer_set : buffer -> int list -> float -> unit
val buffer_rows : buffer -> float array array
(** Materialise a rank-2 buffer as rows (copies). *)

val buffer_view : buffer -> offsets:int list -> sizes:int list -> buffer
(** Aliasing subview. @raise Type_error when out of bounds. *)

val tensor_rows : tensor -> float array array
(** Rank-2 tensor as rows (copies). *)

val to_rows : t -> float array array
(** Rank-2 tensor or buffer as rows. *)

val to_int_rows : t -> int array array
(** Same, rounding to integers (for index tensors). *)
