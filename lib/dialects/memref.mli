(** The [memref] dialect: mutable buffers with aliasing subviews, used
    after bufferization (cim-to-cam). *)

val subview_name : string

val alloc : Ir.Builder.t -> int list -> Ir.Types.elem -> Ir.Value.t
(** Zero-initialised buffer. *)

val subview :
  Ir.Builder.t -> Ir.Value.t -> offsets:Ir.Value.t list -> sizes:int list ->
  Ir.Value.t
(** Aliasing view with dynamic per-dimension offsets and static sizes. *)

val load :
  Ir.Builder.t -> Ir.Value.t -> indices:Ir.Value.t list -> Ir.Value.t
(** Read one element (one index per dimension). *)

val store :
  Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> indices:Ir.Value.t list ->
  unit
(** [store b value base ~indices] writes one element. *)

val register : unit -> unit
