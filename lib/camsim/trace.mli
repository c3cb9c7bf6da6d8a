(** Bounded event trace of device operations, for debugging mappings and
    inspecting what the generated code asks the hardware to do. *)

type event =
  | Alloc of { level : string; id : int }
  | Write of { sub : int; rows : int; row_offset : int }
  | Search of {
      sub : int;
      queries : int;
      rows : int;
      row_offset : int;
      kind : string;
    }
  | Merge of { elems : int }
  | Select of { queries : int; k : int }

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer keeping the last [capacity] events (default 10000). *)

val record : t -> event -> unit
val events : t -> event list
(** Oldest first (within the retained window). *)

val total_recorded : t -> int
(** Including events that have been evicted. *)

val dump : t -> string
