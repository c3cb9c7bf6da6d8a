(** The [cam] dialect (Section III-D2): device-level abstraction for
    CAM-based accelerators. Handles name the four hierarchy levels
    (bank / mat / array / subarray); [write_value] / [search] / [read]
    map 1:1 onto simulator calls; [merge_partial] combines per-tile
    results; [select_best] is the final top-k sensing step. *)

val alloc_subarray_name : string
val select_best_name : string

type search_kind = Exact | Best | Threshold | Range

val search_kind_of_attr : Ir.Attr.t -> search_kind

type search_metric = Hamming | Euclidean

val search_metric_of_attr : Ir.Attr.t -> search_metric

(** {1 Builders} *)

val alloc_bank : Ir.Builder.t -> rows:int -> cols:int -> Ir.Value.t
val alloc_mat : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t
val alloc_array : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t
val alloc_subarray : Ir.Builder.t -> Ir.Value.t -> Ir.Value.t

val write_value :
  Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> row_offset:Ir.Value.t -> unit
(** [write_value b sub data ~row_offset] programs [rows(data)] rows of
    the subarray starting at the (dynamic) row offset. *)

val write_range :
  Ir.Builder.t -> Ir.Value.t -> lo:Ir.Value.t -> hi:Ir.Value.t ->
  row_offset:Ir.Value.t -> unit
(** [write_range b sub ~lo ~hi ~row_offset] programs ACAM range cells:
    row [i] of the subarray accepts queries inside
    [[lo.(i).(j), hi.(i).(j)]] per column. Searched with
    [kind = Range], which senses per-row range-violation counts. *)

val search :
  Ir.Builder.t -> Ir.Value.t -> Ir.Value.t -> kind:search_kind ->
  metric:search_metric -> row_offset:Ir.Value.t -> rows:int ->
  ?threshold:float -> ?batch_extra:bool -> unit -> unit
(** [search b sub queries ...] searches all rows [row_offset ..
    row_offset+rows) against each of the [Q] query rows (selective row
    precharge when [rows] < physical rows). [batch_extra] marks searches
    on subarrays hosting several batches (cam-density), which pay a
    row-decoder reconfiguration cost. *)

val read : Ir.Builder.t -> Ir.Value.t -> queries:int -> rows:int -> Ir.Value.t
(** Result of the last search: a [Q x rows] distance/match buffer. *)

val merge_partial :
  Ir.Builder.t -> dst:Ir.Value.t -> part:Ir.Value.t -> unit
(** In-place horizontal merge: [dst += part] (both [Q x R'] memrefs; the
    vertical placement is expressed by taking [dst] as a subview of the
    global distance buffer). *)

val select_best :
  Ir.Builder.t -> Ir.Value.t -> k:int -> largest:bool ->
  Ir.Value.t * Ir.Value.t
(** Final selection over the merged [Q x N] distances; returns
    [Q x k] values and indices memrefs. *)

val register : unit -> unit
