(** Runtime semantics of the interpreter.

    The closure-compiled engine ({!Compile}) owns dispatch and control
    flow; every op's arithmetic, the similarity scorers, the device-op
    operand dispatch and the execution counters live here. *)

exception Runtime_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Runtime_error} with the formatted message. *)

(** {2 Per-dialect execution counters}

    One slot per dialect; the engine bumps the defining dialect's slot
    exactly once per executed op, terminators included. The resulting
    [ops_executed] list is a deterministic, jobs-invariant proxy for
    interpreter work (wall clock cannot be gated exactly; this can). *)

val dialect_index : string -> int
(** Counter slot for a qualified op name (["scf.for"] -> the ["scf"]
    slot); names outside the known dialects land in ["other"]. *)

val fresh_counts : unit -> int array
(** A zeroed counter array, one slot per known dialect plus a trailing
    ["other"] slot. *)

val counts_list : int array -> (string * int) list
(** Non-zero counters as a [(dialect, count)] list sorted by name. *)

(** {2 Outcome} *)

type outcome = {
  results : Rtval.t list;
  latency : float;
  ops_executed : (string * int) list;
      (** per-dialect executed-op counts, sorted by dialect name;
          identical for any jobs value *)
}

(** Result buffers reused across runs. A serving caller that reads a
    run's results and is then done with them hands them back with
    {!Pool.release}; the next run's [memref.alloc] of the same shape
    takes one, zeroed, instead of allocating. Only buffers the pool
    itself lent come back — a result viewing an argument or other
    storage is ignored — and only a few are kept. Not thread-safe: a
    run uses its pool from the dispatching domain only. *)
module Pool : sig
  type t

  val create : unit -> t

  val release : t -> Rtval.t list -> unit
  (** Hand back a run's results: the caller reads nothing from them
      afterwards. *)
end

val alloc_buffer : Pool.t option -> int list -> Rtval.buffer
(** [memref.alloc]: a zeroed contiguous buffer of this shape — with a
    pool, a released one when the shape matches; otherwise, or when
    none matches, a fresh one. *)

(** {2 Torch-level tensor helpers (value semantics)} *)

val transpose_t : Rtval.tensor -> int -> int -> Rtval.tensor
val matmul_t : Rtval.tensor -> Rtval.tensor -> Rtval.tensor

val ew2 :
  string -> (float -> float -> float) -> Rtval.tensor -> Rtval.tensor ->
  Rtval.tensor
(** Elementwise binop with the interpreter's broadcast rules; the
    string names the op in failure messages. *)

val div3_t : Rtval.tensor -> Rtval.tensor -> Rtval.tensor -> Rtval.tensor
(** Fused cosine division: [x.(i).(j) / (nq.(i) * ns.(j))]. *)

val norm_t : Rtval.tensor -> p:int -> dim:int -> keepdim:bool -> Rtval.tensor

val topk_t :
  Rtval.tensor -> k:int -> dim:int -> largest:bool ->
  Rtval.tensor * Rtval.tensor

val scores_of :
  Dialects.Cim.metric -> float array array -> float array array ->
  float array array
(** Similarity scores at the cim software level; Hamming goes through
    the same bit-packed kernel tiers as the subarray simulator. *)

val topk_rows :
  float array array -> k:int -> largest:bool ->
  float array array * float array array

(** {2 cim / cam structural helpers} *)

val merge_horizontal : Rtval.tensor -> Rtval.tensor -> Rtval.tensor
val merge_vertical : Rtval.tensor -> Rtval.tensor -> offset:int -> Rtval.tensor
val slice_t : Rtval.tensor -> offsets:int list -> sizes:int list -> Rtval.tensor

val buffer_accumulate : string -> Rtval.buffer -> Rtval.buffer -> unit
(** In-place elementwise accumulate of two equally-shaped rank-2
    buffers; the string names the op in failure messages. *)

val rows_accumulate : string -> Rtval.buffer -> float array array -> unit
(** The same with the partial given as a row matrix (a fused
    cam.read's latched result): the same shape check as against
    [Rtval.buffer_of_rows part], the same additions, no copy. *)

val rows_accumulate_at :
  string -> float array -> off:int -> rows:int -> cols:int -> rs:int ->
  cs:int -> float array array -> unit
(** {!rows_accumulate} into a [rows] x [cols] window given by stride
    math: cell [(i, j)] at [off + i*rs + j*cs] of the array. *)

val cam_write :
  Camsim.Simulator.t -> Camsim.Simulator.id -> row_offset:int -> Rtval.t ->
  Camsim.Energy_model.cost
(** [cam.write_value] dispatch: rank-2 buffers
    and tensors go through {!Camsim.Simulator.write_view} as an element
    view over their storage (allocation-free when a serving replay
    finds the rows unchanged); anything else materializes rows and uses
    the plain write. *)

val cam_write_range :
  Camsim.Simulator.t -> Camsim.Simulator.id -> row_offset:int -> Rtval.t ->
  Rtval.t -> Camsim.Energy_model.cost
(** [cam.write_range] dispatch: lo/hi rank-2
    buffers (or tensors) of one geometry go through
    {!Camsim.Simulator.write_range_view}; anything else materializes
    rows and uses the plain range write. *)

val cam_search :
  Camsim.Simulator.t -> Camsim.Simulator.id -> row_offset:int -> rows:int ->
  kind:[ `Exact | `Best | `Threshold | `Range ] ->
  metric:[ `Hamming | `Euclidean ] -> batch_extra:bool -> threshold:float ->
  stamp:int -> Rtval.t -> Camsim.Energy_model.cost
(** [cam.search] dispatch: the query operand — a rank-2 buffer through
    its own offset and strides, a rank-2 tensor as [rs = cols, cs = 1]
    — goes to {!Camsim.Simulator.search_view} under the run's [stamp],
    read in place. @raise Rtval.Type_error on any other operand. *)

val scalar_of : string -> Rtval.t -> float
(** Scalar or index operand coerced to float; fails with
    ["<what>: expected a scalar"] otherwise. *)
