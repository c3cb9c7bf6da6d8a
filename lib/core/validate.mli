(** Hand-crafted mapping baseline (the stand-in for Kazemi et al. [22]
    in the paper's validation, Section IV-B).

    This is an independent, compiler-free analytical mapping of the HDC
    similarity kernel onto the CAM hierarchy: it re-derives the tile
    counts, the per-level latency composition and the energy ledger
    directly from {!Camsim.Energy_model}, the way a hardware expert
    would program the accelerator by hand. By default it is evaluated
    with {!Camsim.Tech.fefet_45nm_v2} — a slightly different simulator
    calibration — reproducing the paper's small validation deviation. *)

type result = {
  latency : float;
  energy : float;
  subarrays : int;
  arrays : int;
  mats : int;
  banks : int;
}

val manual_similarity :
  ?tech:Camsim.Tech.t -> spec:Archspec.Spec.t -> queries:int ->
  stored_rows:int -> dims:int -> k:int -> unit -> result
(** Latency/energy of the hand mapping for a [queries x dims] against
    [stored_rows x dims] best-match search. Honours the spec's access
    modes, density batching and bit width, like the generated code; a
    partly filled subarray, array, mat or bank is charged for the
    tiles it holds.
    @raise Invalid_argument when [dims] is not divisible by the
    subarray columns. *)
