(** cim-to-cam conversion plus the cam-map pass (Section III-D2).

    Consumes functions of the shape produced by the cim pipeline
    ([cim.acquire]; [cim.execute] holding a
    [cim.partitioned_similarity]; [cim.release]; [func.return]) and
    produces the bufferized cam-level function of Figure 6: a loop nest
    over banks / mats / arrays / subarrays (loop kinds chosen from the
    architecture spec's access modes) with [cam] device calls at each
    level, guards pruning unused hierarchy units, and a final
    [cam.select_best].

    The paper's metric mapping is applied here: [dot] and [cosine]
    similarities lower to Hamming search (with the selection direction
    flipped for [dot]/[cosine], since larger similarity means smaller
    distance); [euclidean] lowers to Euclidean search, which requires an
    MCAM or ACAM device.

    Exactness of the dot-to-Hamming mapping: on bipolar vectors
    ([-1/+1], the HDC convention) [dot = dims - 2*hamming], so the CAM
    ranking equals the software ranking at every position. On 0/1
    vectors [hamming = |q| + |s| - 2*dot] additionally depends on the
    stored rows' weights, so rankings agree only where similarity
    margins exceed the weight spread — which holds for the top match of
    noisy-prototype workloads, and is what the e2e tests rely on for
    binary data. *)

type mapping = {
  tiles : int;  (** row_chunks x col_chunks *)
  slots : int;  (** subarrays actually holding data *)
  banks : int;
  batches : int;  (** tiles sharing one subarray (density) *)
}

val mapping_of :
  Archspec.Spec.t -> row_chunks:int -> col_chunks:int -> batches:int ->
  mapping
(** The allocation arithmetic behind Table I. *)

val pass : ?q:int -> Archspec.Spec.t -> Ir.Pass.t
(** The cam-map pass. With [q], the mapped kernel searches [q] query
    rows instead of the similarity's own query extent: only the query
    operand, the distance buffer and the per-tile reads change shape,
    and the loop nest, allocations and stored-row writes, which depend
    on [n], [d] and the spec alone, stay as they are. The input module
    is only read: the mapped function is built fresh, so one cim module
    can be mapped for several row counts, from several domains at once. *)
