(** The [scf] dialect: structured control flow. [scf.for] iterations are
    sequential (latencies add up in the interpreter); [scf.parallel]
    iterations run concurrently (latencies max-combine). *)

val for_name : string
val parallel_name : string

val for_ :
  Ir.Builder.t -> lb:Ir.Value.t -> ub:Ir.Value.t -> step:Ir.Value.t ->
  (Ir.Builder.t -> Ir.Value.t -> unit) -> unit
(** [for_ b ~lb ~ub ~step body] — [body] receives an inner builder and
    the induction variable (an [index] block argument). *)

val parallel :
  Ir.Builder.t -> lb:Ir.Value.t -> ub:Ir.Value.t -> step:Ir.Value.t ->
  (Ir.Builder.t -> Ir.Value.t -> unit) -> unit

val loop_of_mode :
  [ `Sequential | `Parallel ] ->
  Ir.Builder.t -> lb:Ir.Value.t -> ub:Ir.Value.t -> step:Ir.Value.t ->
  (Ir.Builder.t -> Ir.Value.t -> unit) -> unit
(** Pick {!for_} or {!parallel} from an access mode. *)

val if_ : Ir.Builder.t -> Ir.Value.t -> (Ir.Builder.t -> unit) -> unit
(** [if_ b cond body] — no else branch, no results. *)

val yield : Ir.Builder.t -> unit

val register : unit -> unit
