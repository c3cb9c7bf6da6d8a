(** The [crossbar] dialect — the sibling device abstraction of Figure 3:
    resistive-crossbar tiles performing analog GEMV, targeted by cim
    blocks holding plain arithmetic (matmul) instead of search. *)

val alloc_tile : Ir.Builder.t -> Ir.Value.t
val write : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> unit
(** [write b tile block] programs a [k x n] weight block. *)

val gemv : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> rows:int -> Ir.Value.t
(** [gemv b tile inputs ~rows] — [inputs] is an [m x k] memref and
    [rows] the stored block's output width [n]; the result is a fresh
    [m x n] memref of partial products. *)

val accumulate : Ir.Builder.t -> dst:Ir.Value.t -> part:Ir.Value.t -> unit
(** In-place [dst += part] in the digital periphery. *)

val register : unit -> unit
