(** SSA values. Each value has a unique integer id and a type. *)

type t = { id : int; ty : Types.t }

val fresh : Types.t -> t
(** Create a value with a globally fresh id. *)

val with_id : int -> Types.t -> t
(** Create a value with an explicit id (used by the parser). Advances the
    global counter past [id] so later {!fresh} calls stay unique. *)

val equal : t -> t -> bool
(** Identity: two values are equal iff their ids are equal. *)

val name : t -> string
(** Printable name, ["%<id>"]. *)
