(** The [arith] dialect: index arithmetic and constants used by the
    loop-nest code emitted by [cam-map]. *)

val const_index : Ir.Builder.t -> int -> Ir.Value.t
val const_f32 : Ir.Builder.t -> float -> Ir.Value.t

val addi : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val subi : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val muli : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val divi : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val remi : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t

type pred = Lt | Le | Eq | Ne | Gt | Ge

val pred_of_attr : Ir.Attr.t -> pred

val cmpi : Ir.Builder.t -> pred -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
(** Index comparison producing an [i1]. *)

(** {1 Scalar float arithmetic} — the host (loop-dialect) lowering. *)

val addf : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val subf : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val mulf : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val divf : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
val cmpf : Ir.Builder.t -> pred -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t

val select : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t
(** [select b cond x y] is [x] when [cond] holds, else [y]. *)

val register : unit -> unit
