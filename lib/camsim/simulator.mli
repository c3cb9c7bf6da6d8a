(** The CAM-accelerator simulator: hierarchy allocation, functional
    search, and the energy ledger. Latency composition across the
    hierarchy is the IR interpreter's job; every call here returns its
    own {!Energy_model.cost} and accumulates energy into {!stats}. *)

type t

type id = private int
(** Handle to an allocated bank/mat/array/subarray. *)

exception Error of string

val create :
  ?tech:Tech.t -> ?defect_rate:float -> ?defect_seed:int -> ?trace:Trace.t ->
  Archspec.Spec.t -> t
(** Defaults to {!Tech.fefet_45nm}, no defects, no trace.

    [defect_rate] injects write-path cell faults with the given
    probability (binary cells flip; multi-bit cells store a random other
    level) — the unreliable-device regime of scaled FeFETs, for
    robustness studies. Deterministic given [defect_seed].

    [trace] records every device operation into the given ring buffer. *)

val stats : t -> Stats.t

val set_query_hint : t -> int -> unit
(** Number of queries processed per allocation round; used to charge the
    per-query overhead energy of each allocated hierarchy level. *)

(** {1 Serve mode} — persistent-state sessions (see [docs/SERVING.md]).

    A one-shot run pays device allocation and stored-row writes on
    every execution. A serving session instead records those
    structural ops once and replays them for free on every later
    query batch:

    + {!start_recording} before the first execution ([Oneshot] cost
      semantics are unchanged when it is never called);
    + {!seal_recording} after it — allocation and write events freeze
      into a replay log;
    + {!rewind} before each subsequent execution of the {e same}
      module: allocations return the recorded handles without touching
      stats, overhead energy or the trace, and writes compare the
      incoming rows against the cells the subarray holds, rewriting
      (and charging) only the row runs that changed — so an unchanged
      stored database serves every batch with zero write energy, and a
      session's [update_stored] pays exactly for the rows it
      replaced.

    The log keeps no copy of a written row: the device is the record
    of what was last written. A cell matches an incoming one when it
    has the same kind (value, don't-care or range) and, unless it is a
    don't-care, the same value and bound under [Float.compare]; the
    payload under a don't-care is never compared. Two writes to the
    same rows within one execution therefore both rewrite on every
    replay, since each finds the other's cells. Under defect injection
    a compared row whose cells a defect flipped reads as changed and is
    rewritten (with fresh defect draws), the way a write-verify
    controller would do it.

    {2 Dirty rows}

    Comparing every stored cell on every batch would make a replay
    cost the size of the store. A caller that pins a backing store
    instead declares it with {!track} and reports each change to it
    with {!mark}. A replayed {!write_view} or {!write_range_view} that
    reads tracked stores through the window it was recorded from, and
    that no mark meets, costs nothing and reads no cell; a window a
    mark meets is compared and rewritten exactly as above. Data the
    simulator does not track (a tensor computed per batch, materialized
    rows) counts as wholly marked and goes through the same compare.
    Marks clear once a replay has processed the last recorded event.
    A write whose subarray rows another write of the execution also
    programs is always compared: sealing drops its window, since the
    device may hold the other write's cells. *)

val start_recording : t -> unit
(** Begin logging allocation and write events. Must be called on a
    fresh simulator (before any allocation).
    @raise Error if already recording, sealed, or used. *)

val seal_recording : t -> unit
(** Freeze the recorded log; the simulator now replays it. Call after
    the first (recorded) execution, then {!rewind} before each replayed
    one. @raise Error unless recording. *)

val rewind : t -> unit
(** Reset the replay cursor to the start of the recorded log.
    @raise Error unless sealed. *)

val serving : t -> bool
(** [true] once {!seal_recording} has run — allocations and writes now
    replay instead of executing. *)

val track : t -> float array -> unit
(** [track t data] declares [data] a pinned backing store: its owner
    promises to report every later change to it through {!mark}.
    Idempotent. *)

val mark : t -> float array -> off:int -> len:int -> unit
(** [mark t data ~off ~len] records that elements [off .. off+len-1] of
    the tracked store [data] changed, so the next replay compares the
    windows that read them. Marks taken before the recording is sealed
    are dropped — the recorded execution writes the store as it stands
    — as are marks on untracked data, which every replay compares
    anyway. *)

(** {1 Allocation} — raises {!Error} when exceeding the specified
    hierarchy capacity (mats per bank, etc.) or on invalid parents. *)

val alloc_bank : t -> rows:int -> cols:int -> id
val alloc_mat : t -> id -> id
val alloc_array : t -> id -> id
val alloc_subarray : t -> id -> id

(** {1 Device operations} *)

val write :
  t -> id -> row_offset:int -> ?care:bool array array -> float array array ->
  Energy_model.cost
(** Program [Array.length data] rows from [row_offset]. [care], when
    given, is a TCAM don't-care mask: [care.(i).(j) = false] stores a
    don't-care. *)

val write_range :
  t -> id -> row_offset:int -> lo:float array array ->
  hi:float array array -> Energy_model.cost
(** ACAM range write: each cell stores a [lo, hi] acceptance interval
    (two bound planes, so the charge is double a plain write of the
    same geometry). Write-path defect injection does not apply — the
    digital flip model has no analogue for analog bound pairs. Replay
    semantics match {!write}: an unchanged bound table serves every
    batch for free; changed row runs are reprogrammed and charged. *)

val write_range_view :
  t -> id -> row_offset:int -> rows:int -> cols:int -> lo:float array ->
  hi:float array -> off:int -> rs:int -> cs:int -> Energy_model.cost
(** {!write_range} with both bound planes addressed by the same stride
    math as {!write_view}: bound [(i, j)] lives at
    [lo.(off + i*rs + j*cs)] and [hi.(off + i*rs + j*cs)]. Identical
    cost and replay semantics. *)

val write_view :
  t -> id -> row_offset:int -> rows:int -> cols:int -> float array ->
  off:int -> rs:int -> cs:int -> Energy_model.cost
(** [write_view t id ~row_offset ~rows ~cols data ~off ~rs ~cs] is
    {!write} with the payload addressed by stride math — element
    [(i, j)] lives at [data.(off + i*rs + j*cs)] — instead of a
    materialized matrix. Identical cost and replay semantics; the
    difference is work: a replayed window over a tracked store that no
    mark meets (the steady state of a serving session, where [data] is
    an interpreter buffer's backing store) costs nothing, any other is
    compared in place, and changed row runs are materialized only as
    they are rewritten. Raw strides rather than a view closure because
    a closure-valued [int -> int -> float] boxes every element it
    returns. *)

val search :
  t ->
  id ->
  queries:float array array ->
  row_offset:int ->
  rows:int ->
  kind:[ `Exact | `Best | `Threshold | `Range ] ->
  metric:[ `Hamming | `Euclidean ] ->
  ?batch_extra:bool ->
  ?threshold:float ->
  unit ->
  Energy_model.cost
(** Performs the functional search (result latched in the subarray) and
    charges its cost. [`Best] latches raw distances; [`Threshold]
    latches 1/0 match flags against [threshold] (default 0, making it an
    exact match); [`Range] latches ACAM range-violation counts. *)

val search_view :
  t -> id -> row_offset:int -> rows:int ->
  kind:[ `Exact | `Best | `Threshold | `Range ] ->
  metric:[ `Hamming | `Euclidean ] -> batch_extra:bool -> threshold:float ->
  q:int -> cols:int -> float array -> off:int -> rs:int -> cs:int ->
  stamp:int -> Energy_model.cost
(** [search_view t id ~row_offset ~rows ~kind ~metric ~batch_extra
    ~threshold ~q ~cols data ~off ~rs ~cs ~stamp] is {!search} over [q]
    queries of [cols] cells read in place by the stride math of
    {!write_view}: query [i], cell [j] is [data.(off + i*rs + j*cs)].
    Identical results, latched state, tier counts and cost; no row
    matrix is built. The domain's query slot ({!Scratch.packs_for})
    keys the packed queries on [data]'s physical identity, the window
    and [stamp]: a caller that changes [data] must search it under a
    new stamp ({!Scratch.fresh_stamp}) or drop the slot
    ({!Scratch.drop_queries}).
    @raise Invalid_argument when the window reaches outside [data] or
    has a negative offset or stride. *)

val read : t -> id -> float array array
(** Last search result of a subarray, [Q x active_rows]. *)

val merge : t -> elems:int -> Energy_model.cost
(** Charge the cost of accumulating [elems] partial results. *)

val select_best :
  t -> dist:float array array -> k:int -> largest:bool ->
  (float array array * int array array) * Energy_model.cost
(** Top-k per query row over the merged distances via partial
    selection ({!Topk.select_row_into}: one scan for [k = 1], O(n·k)
    insertion otherwise): returns ([values], [indices]) of shape
    [Q x k]. Values rank as under [compare] (NaN lowest) and ties break
    toward the lower index, matching the software references. An empty
    distance matrix (zero queries or zero candidate columns) yields
    empty per-query results even when [k > 0]; only a non-empty matrix
    with [k] exceeding the candidate count raises.

    The returned matrices live in a per-domain arena and are
    overwritten by the next same-geometry call on this domain: copy
    what you keep (every interpreter wraps them into fresh result
    buffers at the cam.select boundary). *)
