(** Convenience constructors for building IR imperatively.

    A builder accumulates ops in order; [finish] returns them. Result
    values are created fresh from the requested result types. *)

type t

val create : unit -> t

val add : t -> Op.t -> unit
(** Append an already-built op. *)

val op :
  t ->
  ?operands:Value.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:Op.region list ->
  string ->
  Types.t list ->
  Value.t list
(** [op b name result_types] appends a new op and returns its fresh
    result values. *)

val op1 :
  t ->
  ?operands:Value.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:Op.region list ->
  string ->
  Types.t ->
  Value.t
(** Like {!op} for single-result ops. *)

val op0 :
  t ->
  ?operands:Value.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:Op.region list ->
  string ->
  unit
(** Like {!op} for zero-result ops. *)

val finish : t -> Op.t list

val build : (t -> unit) -> Op.t list
(** [build f] runs [f] on a fresh builder and returns the ops. *)
