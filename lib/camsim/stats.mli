(** Mutable energy/activity ledger of a simulation run. *)

type t = {
  mutable e_search : float;
  mutable e_write : float;
  mutable e_merge : float;
  mutable e_select : float;
  mutable e_overhead : float;  (** bank/mat/array level per-query cost *)
  mutable n_search_ops : int;
  mutable n_query_cycles : int;  (** search cycles = ops x queries *)
  mutable n_write_ops : int;
  mutable n_banks : int;
  mutable n_mats : int;
  mutable n_arrays : int;
  mutable n_subarrays : int;
  mutable n_kernel_binary : int;
      (** row distances computed by the bit-packed binary kernel *)
  mutable n_kernel_nibble : int;
      (** row distances computed by the 4-bit packed kernel *)
  mutable n_kernel_generic : int;
      (** row distances computed by the scalar per-cell loop *)
  mutable n_kernel_early_exit : int;
      (** threshold-search rows abandoned before the last word/cell
          because the mismatch budget was already exceeded *)
}

val create : unit -> t
val total_energy : t -> float
val add_into : into:t -> t -> unit
(** [add_into ~into s] adds every energy and counter of [s] to [into]
    — how a multi-device store sums its per-device ledgers. *)

val reset : t -> unit
val to_string : t -> string
