(** Compile-time attributes attached to IR operations. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string  (** quoted string payload *)
  | Sym of string  (** bare keyword, e.g. match kinds [exact], [best] *)
  | Ints of int list
  | Type_attr of Types.t

val equal : t -> t -> bool

(** Accessors raising [Invalid_argument] on kind mismatch. *)

val as_int : t -> int
val as_float : t -> float
val as_bool : t -> bool
val as_str : t -> string
val as_sym : t -> string
val as_ints : t -> int list
val as_type : t -> Types.t

val find : (string * t) list -> string -> t option
val get : (string * t) list -> string -> t
(** @raise Not_found when the key is absent. *)
