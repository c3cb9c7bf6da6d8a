(** Compulsory partitioning (Section III-D1, Figure 5d): tile fused
    [cim.similarity] / [cim.similarity_scores] ops into subarray-sized
    pieces with [cim.merge_partial] accumulation.

    The result is a [cim.partitioned_similarity] wrapper whose
    attributes carry the tiling parameters consumed by the cam-map pass
    and whose region holds the compact one-op form of the computation.
    The fully-expanded tile program (slices, partial similarities and
    merges: Figure 5's view, executable at the cim level as a software
    reference) is built only on demand, by {!expand}.

    Tiling is hierarchy-oblivious by design (the paper keeps hardware
    mapping out of the cim dialect); only the subarray geometry and, for
    the density optimization, the number of batches packed per subarray
    are used. Requires the data dimension to divide evenly by the
    subarray columns, and the stored rows by the subarray rows when they
    exceed them. *)

val batches_for : Archspec.Spec.t -> stored_rows:int -> int
(** Tiles sharing one subarray: [floor(rows/n)] under [Density] /
    [Power_density] when [n < rows], otherwise 1. *)

val pass : Archspec.Spec.t -> Ir.Pass.t

val expand : Ir.Func_ir.modul -> Ir.Func_ir.modul
(** Rebuild every wrapper's region, in place, as the expanded tile
    program, for tilings of at most 4096 tiles (larger ones keep the
    compact form). Returns the module. *)

val expanded_pass : Archspec.Spec.t -> Ir.Pass.t
(** {!pass} followed by {!expand}, under the same pass name: what
    pass traces print. *)
