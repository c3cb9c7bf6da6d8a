type id = int

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type node =
  | Bank of { rows : int; cols : int; mutable mats : int }
  | Mat of { bank : id; mutable arrays : int }
  | Array_ of { mat : id; mutable subarrays : int }
  | Sub of { array_ : id; sub : Subarray.t }

(* Where a recorded view write read its payload: the backing store(s)
   and the window's stride geometry. A replay that reads the same
   tracked stores through the same window may skip the compare when no
   mark meets the window (see [clean_window]). *)
type origin = {
  o_data : float array;
  o_data2 : float array;  (* a range write's hi plane; [o_data] otherwise *)
  o_off : int;
  o_rs : int;
  o_cs : int;
  o_cols : int;
}

(* The structural ops a serving session records on its first execution
   and replays on every later one. A write event keeps no payload: the
   subarray's cells already hold what was last written, so a replay
   diffs the incoming rows against them. *)
type write_event = {
  w_id : id;
  w_row_offset : int;
  w_range : bool;  (* an ACAM range write *)
  w_rows : int;
  w_origin : origin option;
}

type serve_event = Ev_alloc of id | Ev_write of write_event

type serve_mode =
  | Oneshot
  | Recording of serve_event list ref (* reversed *)
  | Replaying of { events : serve_event array; mutable cursor : int }

(* A pinned backing store whose owner reports every change through
   [mark]: the flat element ranges [lo, hi) written since the last
   replay, in parallel arrays, sorted and coalesced on first use. *)
type tracked = {
  tr_data : float array;
  mutable tr_lo : int array;
  mutable tr_hi : int array;
  mutable tr_n : int;
  mutable tr_sorted : bool;
}

type t = {
  sim_spec : Archspec.Spec.t;
  sim_tech : Tech.t;
  sim_stats : Stats.t;
  nodes : (id, node) Hashtbl.t;
  mutable next_id : int;
  mutable query_hint : int;
  defect_rate : float;
  defect_rng : Rng.t;
  trace : Trace.t option;
  mutable serve : serve_mode;
  mutable tracked : tracked list;
}

let create ?(tech = Tech.fefet_45nm) ?(defect_rate = 0.)
    ?(defect_seed = 1) ?trace spec =
  (match Archspec.Spec.validate spec with
  | Ok () -> ()
  | Error e -> err "invalid architecture spec: %s" e);
  if defect_rate < 0. || defect_rate >= 1. then
    err "defect rate must be in [0, 1)";
  {
    sim_spec = spec;
    sim_tech = tech;
    sim_stats = Stats.create ();
    nodes = Hashtbl.create 256;
    next_id = 0;
    query_hint = 1;
    defect_rate;
    defect_rng = Rng.create defect_seed;
    trace;
    serve = Oneshot;
    tracked = [];
  }

(* ---- serve mode (record / replay) ------------------------------------- *)

let start_recording t =
  match t.serve with
  | Oneshot ->
      if t.next_id <> 0 then
        err "start_recording: the simulator has already allocated devices";
      t.serve <- Recording (ref [])
  | Recording _ | Replaying _ -> err "start_recording: already recording"

(* A write whose subarray rows another write of the execution also
   programs may find its window clean while the device holds the other
   write's cells: such writes lose their origin, so every replay
   compares them against the cells. *)
let drop_shared_origins events =
  let by_sub = Hashtbl.create 64 in
  Array.iter
    (function Ev_write w -> Hashtbl.add by_sub w.w_id w | Ev_alloc _ -> ())
    events;
  let shared w =
    List.exists
      (fun o ->
        o != w
        && o.w_row_offset < w.w_row_offset + w.w_rows
        && w.w_row_offset < o.w_row_offset + o.w_rows)
      (Hashtbl.find_all by_sub w.w_id)
  in
  Array.map
    (function
      | Ev_write w when Option.is_some w.w_origin && shared w ->
          Ev_write { w with w_origin = None }
      | ev -> ev)
    events

let seal_recording t =
  match t.serve with
  | Recording log ->
      let events = drop_shared_origins (Array.of_list (List.rev !log)) in
      t.serve <- Replaying { events; cursor = Array.length events }
  | Oneshot -> err "seal_recording: the simulator is not recording"
  | Replaying _ -> err "seal_recording: already sealed"

let rewind t =
  match t.serve with
  | Replaying r -> r.cursor <- 0
  | Oneshot | Recording _ ->
      err "rewind: the recording has not been sealed"

let serving t = match t.serve with Replaying _ -> true | _ -> false

let log_event t ev =
  match t.serve with Recording log -> log := ev :: !log | _ -> ()

(* ---- dirty marks ------------------------------------------------------- *)

let find_tracked t data =
  List.find_opt (fun tr -> tr.tr_data == data) t.tracked

let track t data =
  if Option.is_none (find_tracked t data) then
    t.tracked <-
      {
        tr_data = data;
        tr_lo = Array.make 8 0;
        tr_hi = Array.make 8 0;
        tr_n = 0;
        tr_sorted = true;
      }
      :: t.tracked

(* Only a sealed replay needs marks: the recorded execution writes the
   store's contents as they stand, so earlier changes are already in. *)
let mark t data ~off ~len =
  match (t.serve, find_tracked t data) with
  | Replaying r, Some tr when len > 0 && Array.length r.events > 0 ->
      if tr.tr_n = Array.length tr.tr_lo then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        tr.tr_lo <- grow tr.tr_lo;
        tr.tr_hi <- grow tr.tr_hi
      end;
      tr.tr_lo.(tr.tr_n) <- off;
      tr.tr_hi.(tr.tr_n) <- off + len;
      tr.tr_n <- tr.tr_n + 1;
      tr.tr_sorted <- false
  | _ -> ()

let sort_marks tr =
  if not tr.tr_sorted then begin
    let pairs = Array.init tr.tr_n (fun i -> (tr.tr_lo.(i), tr.tr_hi.(i))) in
    Array.sort compare pairs;
    let n = ref 0 in
    Array.iter
      (fun (lo, hi) ->
        if !n > 0 && lo <= tr.tr_hi.(!n - 1) then
          tr.tr_hi.(!n - 1) <- max hi tr.tr_hi.(!n - 1)
        else begin
          tr.tr_lo.(!n) <- lo;
          tr.tr_hi.(!n) <- hi;
          incr n
        end)
      pairs;
    tr.tr_n <- !n;
    tr.tr_sorted <- true
  end

(* Whether a mark meets flat elements [lo, hi) of [data]; an untracked
   store counts as wholly marked. *)
let rec marked tracked data ~lo ~hi =
  match tracked with
  | [] -> true
  | tr :: rest when tr.tr_data != data -> marked rest data ~lo ~hi
  | tr :: _ ->
      tr.tr_n > 0
      && begin
           sort_marks tr;
           (* the first (disjoint, sorted) mark ending after [lo] *)
           let a = ref 0 and b = ref tr.tr_n in
           while !a < !b do
             let m = (!a + !b) / 2 in
             if tr.tr_hi.(m) <= lo then a := m + 1 else b := m
           done;
           !a < tr.tr_n && tr.tr_lo.(!a) < hi
         end

(* Marks describe changes since the last replay: once a replay has
   processed the last recorded event, every mark has been honoured. *)
let event_done t =
  match t.serve with
  | Replaying r when r.cursor = Array.length r.events ->
      List.iter
        (fun tr ->
          tr.tr_n <- 0;
          tr.tr_sorted <- true)
        t.tracked
  | _ -> ()

let next_event t =
  match t.serve with
  | Replaying r when r.cursor < Array.length r.events ->
      let ev = r.events.(r.cursor) in
      r.cursor <- r.cursor + 1;
      ev
  | Replaying _ ->
      err "serve replay diverged: more device setup ops than were recorded"
  | Oneshot | Recording _ -> err "next_event: not replaying"

let record t event =
  match t.trace with Some tr -> Trace.record tr event | None -> ()

(* Hot-path call sites test this before building their event record, so
   an untraced simulator (the serving default) never allocates one. *)
let tracing t = t.trace <> None

(* Stuck-at / flipped-cell injection on the write path: with probability
   [defect_rate] a binary cell stores the opposite value; a multi-bit
   cell stores a random other level. Models the unreliable scaled FeFETs
   that motivate robustness studies (HDGIM). *)
let inject_defects t data =
  if t.defect_rate = 0. then data
  else
    let max_val = (1 lsl t.sim_spec.bits) - 1 in
    Array.map
      (Array.map (fun v ->
           if not (Rng.bool t.defect_rng t.defect_rate) then v
           else if v = 0. then 1.
           else if v = 1. && max_val = 1 then 0.
           else if Float.is_integer v && v >= 0. && v <= float_of_int max_val
           then float_of_int (Rng.int t.defect_rng (max_val + 1))
           else -. v))
      data

let stats t = t.sim_stats
let set_query_hint t q = t.query_hint <- max 1 q

let fresh t node =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.nodes id node;
  id

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> err "unknown device handle %d" id

let charge_overhead t level =
  let c =
    Energy_model.level_overhead t.sim_tech ~level ~queries:t.query_hint
  in
  t.sim_stats.e_overhead <- t.sim_stats.e_overhead +. c.energy

(* During replay an allocation op consumes the recorded event and hands
   back the existing node: no stats, no overhead charge, no trace — the
   device was built once, on the recorded first execution. *)
let replayed_alloc t what pred =
  match next_event t with
  | Ev_alloc id when pred (node t id) ->
      event_done t;
      id
  | Ev_alloc _ | Ev_write _ ->
      err "serve replay diverged at a %s allocation" what

let alloc_bank t ~rows ~cols =
  if serving t then
    replayed_alloc t "bank" (function Bank _ -> true | _ -> false)
  else begin
    (match t.sim_spec.max_banks with
    | Some b when t.sim_stats.n_banks >= b ->
        err "bank allocation exceeds the configured %d banks" b
    | _ -> ());
    if rows <> t.sim_spec.rows || cols <> t.sim_spec.cols then
      err "bank geometry %dx%d disagrees with the architecture spec %dx%d"
        rows cols t.sim_spec.rows t.sim_spec.cols;
    t.sim_stats.n_banks <- t.sim_stats.n_banks + 1;
    charge_overhead t `Bank;
    let id = fresh t (Bank { rows; cols; mats = 0 }) in
    record t (Trace.Alloc { level = "bank"; id });
    log_event t (Ev_alloc id);
    id
  end

let alloc_mat t bank_id =
  if serving t then
    replayed_alloc t "mat" (function Mat _ -> true | _ -> false)
  else
    match node t bank_id with
    | Bank b ->
        if b.mats >= t.sim_spec.mats_per_bank then
          err "mat allocation exceeds %d mats per bank"
            t.sim_spec.mats_per_bank;
        b.mats <- b.mats + 1;
        t.sim_stats.n_mats <- t.sim_stats.n_mats + 1;
        charge_overhead t `Mat;
        let id = fresh t (Mat { bank = bank_id; arrays = 0 }) in
        record t (Trace.Alloc { level = "mat"; id });
        log_event t (Ev_alloc id);
        id
    | Mat _ | Array_ _ | Sub _ ->
        err "alloc_mat: handle %d is not a bank" bank_id

let alloc_array t mat_id =
  if serving t then
    replayed_alloc t "array" (function Array_ _ -> true | _ -> false)
  else
    match node t mat_id with
    | Mat m ->
        if m.arrays >= t.sim_spec.arrays_per_mat then
          err "array allocation exceeds %d arrays per mat"
            t.sim_spec.arrays_per_mat;
        m.arrays <- m.arrays + 1;
        t.sim_stats.n_arrays <- t.sim_stats.n_arrays + 1;
        charge_overhead t `Array;
        let id = fresh t (Array_ { mat = mat_id; subarrays = 0 }) in
        record t (Trace.Alloc { level = "array"; id });
        log_event t (Ev_alloc id);
        id
    | Bank _ | Array_ _ | Sub _ ->
        err "alloc_array: handle %d is not a mat" mat_id

let alloc_subarray t array_id =
  if serving t then
    replayed_alloc t "subarray" (function Sub _ -> true | _ -> false)
  else
    match node t array_id with
    | Array_ a ->
        if a.subarrays >= t.sim_spec.subarrays_per_array then
          err "subarray allocation exceeds %d subarrays per array"
            t.sim_spec.subarrays_per_array;
        a.subarrays <- a.subarrays + 1;
        t.sim_stats.n_subarrays <- t.sim_stats.n_subarrays + 1;
        let sub =
          Subarray.create ~rows:t.sim_spec.rows ~cols:t.sim_spec.cols
            ~bits:t.sim_spec.bits
        in
        (* every simulator consumer copies search results at the API
           boundary, so the subarray may reuse its result matrix *)
        Subarray.set_reuse_results sub true;
        let id = fresh t (Sub { array_ = array_id; sub }) in
        record t (Trace.Alloc { level = "subarray"; id });
        log_event t (Ev_alloc id);
        id
    | Bank _ | Mat _ | Sub _ ->
        err "alloc_subarray: handle %d is not an array" array_id

let subarray t id =
  match node t id with
  | Sub s -> s.sub
  | Bank _ | Mat _ | Array_ _ -> err "handle %d is not a subarray" id

let write_cost t rows =
  Energy_model.write t.sim_tech ~bits:t.sim_spec.bits ~cols:t.sim_spec.cols
    ~rows

let perform_write t id ~row_offset ?care data =
  let sub = subarray t id in
  Subarray.write sub ~row_offset ?care (inject_defects t data);
  if tracing t then
    record t (Trace.Write { sub = id; rows = Array.length data; row_offset });
  let c = write_cost t (Array.length data) in
  t.sim_stats.e_write <- t.sim_stats.e_write +. c.energy;
  t.sim_stats.n_write_ops <- t.sim_stats.n_write_ops + 1;
  c

(* An ACAM range write programs two bound planes per cell (lower and
   upper reference voltages), so it costs two plain writes of the same
   geometry. Defects are not injected: the binary/multi-level flip
   model of [inject_defects] has no analogue for analog bound pairs. *)
let perform_write_range t id ~row_offset ~lo ~hi =
  let sub = subarray t id in
  Subarray.write_range sub ~row_offset ~lo ~hi;
  if tracing t then
    record t (Trace.Write { sub = id; rows = Array.length lo; row_offset });
  let c = write_cost t (Array.length lo) in
  let c = Energy_model.add c c in
  t.sim_stats.e_write <- t.sim_stats.e_write +. c.energy;
  t.sim_stats.n_write_ops <- t.sim_stats.n_write_ops + 1;
  c

let record_write t id ~row_offset ~range ~rows ?origin () =
  match t.serve with
  | Recording log ->
      log :=
        Ev_write
          {
            w_id = id;
            w_row_offset = row_offset;
            w_range = range;
            w_rows = rows;
            w_origin = origin;
          }
        :: !log
  | Oneshot | Replaying _ -> ()

let origin data data2 ~off ~rs ~cs ~cols =
  {
    o_data = data;
    o_data2 = data2;
    o_off = off;
    o_rs = rs;
    o_cs = cs;
    o_cols = cols;
  }

(* One plane of an incoming write is a [Scratch.matrix]: materialized
   rows, or a window over a flat backing store with element [(i, j)] at
   [data.(off + i*rs + j*cs)] — raw strides rather than a view closure,
   which would box every element it returns. *)
let view_rows data ~off ~rs ~cs ~cols i len =
  Array.init len (fun r ->
      let base = off + ((i + r) * rs) in
      Array.init cols (fun j -> data.(base + (j * cs))))

let plane_rows (p : Scratch.matrix) i len =
  match p with
  | Rows rows -> Array.sub rows i len
  | View { data; off; rs; cs; cols; _ } ->
      view_rows data ~off ~rs ~cs ~cols i len

(* The recorded event a replayed write must meet: same device, offset,
   kind and row count, or the replay has diverged. *)
let replayed_write t id ~row_offset ~range ~rows =
  match next_event t with
  | Ev_write w
    when w.w_id = id && w.w_row_offset = row_offset && w.w_range = range
         && w.w_rows = rows ->
      w
  | Ev_write _ | Ev_alloc _ ->
      err "serve replay diverged at a %s"
        (if range then "range write" else "write")

(* A replayed view write is clean — the device window already holds
   the payload — when it reads the tracked stores it was recorded from,
   through the same window, and no mark meets the window's element
   extent. *)
let clean_window t w ~rows ~cols data data2 ~off ~rs ~cs =
  match w.w_origin with
  | Some o
    when o.o_data == data && o.o_data2 == data2 && o.o_off = off
         && o.o_rs = rs && o.o_cs = cs && o.o_cols = cols ->
      let span_r = (rows - 1) * rs and span_c = (cols - 1) * cs in
      let lo = off + min 0 span_r + min 0 span_c in
      let hi = off + max 0 span_r + max 0 span_c + 1 in
      (not (marked t.tracked data ~lo ~hi))
      && (data2 == data || not (marked t.tracked data2 ~lo ~hi))
  | _ -> false

(* The one replay path behind every write: compare each incoming row
   with the cells the subarray holds and rewrite (and charge) only the
   maximal runs of rows that changed — the incremental path behind a
   session's [update_stored]; a write with identical data is free. The
   [hi] plane marks a range write. *)
let rewrite_changed t w ?care ?hi lo =
  let sub = subarray t w.w_id in
  let changed i =
    Subarray.row_differs sub ~row:(w.w_row_offset + i)
      ?care:(match care with Some c -> Some c.(i) | None -> None)
      ?hi:(match hi with Some h -> Some (Scratch.row_data h i) | None -> None)
      (Scratch.row_data lo i) ~off:(Scratch.row_off lo i)
      ~cs:(Scratch.row_cs lo) ~cols:(Scratch.row_cols lo i)
  in
  let cost = ref Energy_model.zero in
  let i = ref 0 in
  while !i < w.w_rows do
    if changed !i then begin
      let j = ref (!i + 1) in
      while !j < w.w_rows && changed !j do incr j done;
      let len = !j - !i in
      let row_offset = w.w_row_offset + !i in
      let lo_rows = plane_rows lo !i len in
      let c =
        match hi with
        | Some h ->
            perform_write_range t w.w_id ~row_offset ~lo:lo_rows
              ~hi:(plane_rows h !i len)
        | None ->
            perform_write t w.w_id ~row_offset
              ?care:(Option.map (fun c -> Array.sub c !i len) care)
              lo_rows
      in
      cost := Energy_model.add !cost c;
      i := !j
    end
    else incr i
  done;
  !cost

(* Every replayed write ends here: the cost, after [event_done]. *)
let replayed t c =
  event_done t;
  c

let write t id ~row_offset ?care data =
  let rows = Array.length data in
  if serving t then
    let w = replayed_write t id ~row_offset ~range:false ~rows in
    replayed t (rewrite_changed t w ?care (Scratch.Rows data))
  else begin
    record_write t id ~row_offset ~range:false ~rows ();
    perform_write t id ~row_offset ?care data
  end

let write_range t id ~row_offset ~lo ~hi =
  let rows = Array.length lo in
  if serving t then
    let w = replayed_write t id ~row_offset ~range:true ~rows in
    replayed t (rewrite_changed t w ~hi:(Scratch.Rows hi) (Scratch.Rows lo))
  else begin
    record_write t id ~row_offset ~range:true ~rows ();
    perform_write_range t id ~row_offset ~lo ~hi
  end

(* [write_view] and [write_range_view] read their payload by stride
   math over flat backing stores. Off the replay path they materialize
   it — the subarray and the defect injector take row arrays — but a
   replayed clean window, the steady state of a serving session, costs
   nothing, reads no cell and allocates nothing; a dirty one is
   compared in place and materializes only the row runs it rewrites. *)
let write_view t id ~row_offset ~rows ~cols data ~off ~rs ~cs =
  if serving t then
    let w = replayed_write t id ~row_offset ~range:false ~rows in
    replayed t
      (if clean_window t w ~rows ~cols data data ~off ~rs ~cs then
         Energy_model.zero
       else
         rewrite_changed t w
           (Scratch.View { data; off; rs; cs; rows; cols; stamp = 0 }))
  else begin
    record_write t id ~row_offset ~range:false ~rows
      ~origin:(origin data data ~off ~rs ~cs ~cols) ();
    perform_write t id ~row_offset (view_rows data ~off ~rs ~cs ~cols 0 rows)
  end

let write_range_view t id ~row_offset ~rows ~cols ~lo ~hi ~off ~rs ~cs =
  if serving t then
    let w = replayed_write t id ~row_offset ~range:true ~rows in
    replayed t
      (if clean_window t w ~rows ~cols lo hi ~off ~rs ~cs then
         Energy_model.zero
       else
         let plane data =
           Scratch.View { data; off; rs; cs; rows; cols; stamp = 0 }
         in
         rewrite_changed t w ~hi:(plane hi) (plane lo))
  else begin
    record_write t id ~row_offset ~range:true ~rows
      ~origin:(origin lo hi ~off ~rs ~cs ~cols) ();
    perform_write_range t id ~row_offset
      ~lo:(view_rows lo ~off ~rs ~cs ~cols 0 rows)
      ~hi:(view_rows hi ~off ~rs ~cs ~cols 0 rows)
  end

(* The one search path: the functional search over the queries [w],
   then the charge. *)
let search_in t id (w : Scratch.matrix) ~row_offset ~rows ~kind ~metric
    ~batch_extra ~threshold =
  let sub = subarray t id in
  let stats = t.sim_stats in
  (match kind with
  | `Range ->
      ignore
        (Subarray.search_window ~stats sub w ~row_offset ~rows
           ~metric:`Hamming)
  | `Exact | `Best ->
      ignore (Subarray.search_window ~stats sub w ~row_offset ~rows ~metric)
  | `Threshold ->
      ignore
        (Subarray.search_threshold_window ~stats sub w ~row_offset ~rows
           ~metric ~threshold));
  let q = Scratch.row_count w in
  if tracing t then
    record t
      (Trace.Search
         {
           sub = id;
           queries = q;
           rows;
           row_offset;
           kind =
             (match kind with
             | `Exact -> "exact"
             | `Best -> "best"
             | `Threshold -> "threshold"
             | `Range -> "range");
         });
  let c =
    Energy_model.search t.sim_tech ~bits:t.sim_spec.bits
      ~cols:t.sim_spec.cols ~active_rows:rows
      ~physical_rows:t.sim_spec.rows ~kind ~queries:q ~batch_extra ()
  in
  t.sim_stats.e_search <- t.sim_stats.e_search +. c.energy;
  t.sim_stats.n_search_ops <- t.sim_stats.n_search_ops + 1;
  t.sim_stats.n_query_cycles <- t.sim_stats.n_query_cycles + q;
  c

let search t id ~queries ~row_offset ~rows ~kind ~metric
    ?(batch_extra = false) ?(threshold = 0.) () =
  search_in t id (Scratch.Rows queries) ~row_offset ~rows ~kind ~metric
    ~batch_extra ~threshold

let search_view t id ~row_offset ~rows ~kind ~metric ~batch_extra ~threshold
    ~q ~cols data ~off ~rs ~cs ~stamp =
  search_in t id
    (Scratch.View { data; off; rs; cs; rows = q; cols; stamp })
    ~row_offset ~rows ~kind ~metric ~batch_extra ~threshold

let read t id = Subarray.read (subarray t id)

let merge t ~elems =
  if tracing t then record t (Trace.Merge { elems });
  let c = Energy_model.merge t.sim_tech ~elems in
  t.sim_stats.e_merge <- t.sim_stats.e_merge +. c.energy;
  c

let select_best t ~dist ~k ~largest =
  if tracing t then record t (Trace.Select { queries = Array.length dist; k });
  let q = Array.length dist in
  let n = if q = 0 then 0 else Array.length dist.(0) in
  (* An empty distance matrix (no queries, or no candidate rows) has a
     well-defined answer — nothing selected — even when k > 0; only a
     non-empty matrix with too few candidates is a caller error. *)
  if n > 0 && k > n then
    err "select_best: k=%d exceeds %d candidates" k n;
  let k = if n = 0 then 0 else k in
  (* result matrices and the selection-order buffer come from the
     domain's arena: callers copy what they keep (the interpreters wrap
     results into fresh buffers at the cam.select boundary) *)
  let values, indices = Scratch.select_buffers (Scratch.get ()) ~q ~k in
  for qi = 0 to q - 1 do
    Topk.select_row_into dist.(qi) ~n ~k ~largest ~values:values.(qi)
      ~indices:indices.(qi)
  done;
  let c =
    Energy_model.select t.sim_tech ~elems_per_query:(max n 1) ~k ~queries:q
  in
  t.sim_stats.e_select <- t.sim_stats.e_select +. c.energy;
  ((values, indices), c)
