(** Per-domain scratch arenas for the simulator hot path.

    One record per domain (via [Domain.DLS]), grown to the high-water
    mark and reused across searches and batches, so steady-state
    serving performs no per-query allocation for query packs, dispatch
    counters, or top-k buffers (see docs/KERNELS.md). Arenas are
    acquired on the domain that dispatches an operation; parallel row
    tiles only write disjoint per-query slots of the captured arrays,
    so worker domains never contend. Purely a reuse mechanism — every
    value computed through an arena is identical to a fresh-allocation
    run. *)

(** A row matrix: materialized rows, or a strided view over a flat
    backing store whose row [i], cell [j] is [data.(off + i*rs + j*cs)]
    ([rows] rows of [cols] cells). A search's queries and a write's
    payload take this shape. A searched view carries the [stamp] of the
    interpreter run that built it (see {!fresh_stamp}); a write's
    payload carries 0. *)
type matrix =
  | Rows of float array array
  | View of {
      data : float array;
      off : int;
      rs : int;
      cs : int;
      rows : int;
      cols : int;
      stamp : int;
    }

val row_count : matrix -> int

val row_data : matrix -> int -> float array
(** [row_data m i], [row_off m i], [row_cs m] and [row_cols m i] address
    row [i]: cell [j] is [(row_data m i).(row_off m i + j * row_cs m)],
    for [j < row_cols m i]. *)

val row_off : matrix -> int -> int
val row_cs : matrix -> int
val row_cols : matrix -> int -> int

val fresh_stamp : unit -> int
(** A stamp no earlier call returned, from one process-wide counter:
    each interpreter run draws one for the views it searches, so the
    query slot never answers a run with packs another run filled. *)

type t = {
  mutable sq_key : matrix;
  mutable sq_cols : int;
  mutable nq : Kernel.flat;
  mutable nq_has : Bytes.t;
  mutable bq : Kernel.flat;
  mutable bq_has : Bytes.t;
  mutable bq_filled : bool;
  mutable kb : int array;
  mutable kn : int array;
  mutable kg : int array;
  mutable ke : int array;
  mutable sel_q : int;
  mutable sel_k : int;
  mutable sel_values : float array array;
  mutable sel_indices : int array array;
}

val get : unit -> t
(** The calling domain's arena record. *)

val packs_for : cols:int -> matrix -> t
(** Arena with [nq]/[nq_has] describing this query batch at width
    [cols]: the domain's one query slot. [Rows] key on the rows
    array's physical identity; a [View] on its backing's physical
    identity, [off], [rs], [cs], [rows], [cols] and [stamp]. A
    partitioned search over T row tiles packs the batch once; any other
    key evicts the slot. The binary side is filled lazily by
    {!ensure_binary}. *)

val ensure_binary : t -> unit
(** Fill [bq]/[bq_has] for the batch currently described by the
    arena. *)

val drop_queries : float array -> unit
(** Drop this domain's query slot if it holds a view over [data]:
    called after every in-run write into an interpreter buffer, so a
    later search of the same window in the same run re-packs. *)

val counters : t -> n:int -> unit
(** Zero the first [n] slots of [kb]/[kn]/[kg]/[ke], growing them as
    needed. *)

val select_buffers : t -> q:int -> k:int -> float array array * int array array
(** Top-k result arenas for a [q x k] selection, reused while the
    geometry holds. Callers must copy rows out before the next
    selection of the same geometry on this domain. *)
