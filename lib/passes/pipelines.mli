(** Standard pass pipelines of the C4CAM flow (Figure 3). *)

val cim_pipeline : Ir.Pass.t list
(** torch-to-cim, fusion, canonicalize — the target-agnostic half. *)

val by_name : Archspec.Spec.t -> string -> Ir.Pass.t option
(** Look up a single pass by its name (CLI [--passes] support). *)

val names : string list
