(** Deterministic SplitMix64 pseudo-random generator. All datasets are
    generated from explicit seeds so every experiment is reproducible
    bit-for-bit. *)

type t

val create : int -> t
(** Seeded generator. *)

val split : t -> int -> t
(** [split t i] derives an independent child generator from [t]'s
    current state and the index [i >= 0], without advancing [t]. The
    child stream is a pure function of (parent state, index), so
    parallel workers that each take [split t worker_index] draw
    identical streams regardless of scheduling — split by index, never
    by schedule. @raise Invalid_argument when [i < 0]. *)

val next_int64 : t -> int64

val advance : t -> int -> unit
(** [advance t k] skips [k >= 0] draws of {!next_int64} in O(1): the
    stream then continues exactly as after [k] calls. {!float} takes one
    draw and {!gaussian} two. @raise Invalid_argument when [k < 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument when
    [bound <= 0]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val gaussian : t -> float
(** Standard normal (Box-Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)
