(** Architecture specification (Section III-B): the hierarchy of the CAM
    accelerator, the access mode of each level, the CAM device type, and
    the optimization target. This is the retargetability input of
    C4CAM. *)

type access_mode = Sequential | Parallel

type cam_kind = Tcam | Bcam | Mcam | Acam

type optimization =
  | Base  (** maximum parallelism, no optimization applied *)
  | Power  (** one subarray active at a time within an array *)
  | Density  (** selective search packs multiple tiles per subarray *)
  | Power_density  (** both of the above *)

type t = {
  rows : int;  (** subarray rows (R) *)
  cols : int;  (** subarray columns (C) *)
  subarrays_per_array : int;
  arrays_per_mat : int;
  mats_per_bank : int;
  max_banks : int option;  (** [None] = as many banks as needed *)
  bank_mode : access_mode;
  mat_mode : access_mode;
  array_mode : access_mode;
  subarray_mode : access_mode;
  cam_kind : cam_kind;
  bits : int;  (** bits per cell: 1 = binary, >1 = multi-bit *)
  optimization : optimization;
}

val cam_kind_to_string : cam_kind -> string
val optimization_to_string : optimization -> string

val default : t
(** The paper's system configuration (Section IV-B): 32x32 subarrays,
    8 subarrays/array, 4 arrays/mat, 4 mats/bank, unlimited banks, all
    levels parallel, binary TCAM, base optimization. *)

val paper_config : ?rows:int -> cols:int -> ?bits:int -> unit -> t
(** [default] with the given subarray geometry (rows defaults to 32). *)

val square : int -> optimization -> t
(** Square subarray of the given side with the paper hierarchy, used by
    the design-space exploration of Section IV-C. *)

val with_optimization : t -> optimization -> t
(** Also applies the optimization's structural consequence: [Power] and
    [Power_density] force the subarray level to sequential access. *)

val subarrays_per_bank : t -> int
val cells_per_subarray : t -> int

val validate : t -> (unit, string) result
(** Positive sizes, sensible bits, etc. *)

val to_string : t -> string
(** Round-trips through {!of_string}. *)

val of_string : string -> (t, string) result
(** Parse a [key = value] configuration (one per line, [#] comments).
    Unknown keys are errors; missing keys take {!default} values. *)

val load : string -> (t, string) result
(** Read a configuration file. *)
