(* Per-domain scratch arenas for the simulator hot path.

   One record per domain (via DLS), grown to the high-water mark and
   reused, so steady-state serving — same batch geometry every time —
   performs no per-batch allocation here. Domain-local means worker
   domains never race on an arena: a search acquires the arenas on the
   domain that dispatches it, and the parallel row tiles only write
   per-query slots of arrays captured from that arena. *)

(* A row matrix: materialized rows, or a strided view over a flat
   backing store. Row [i] as the kernels read it: cell [j] is
   [(row_data m i).(row_off m i + j * row_cs m)], [row_cols m i]
   cells. *)
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

let row_count = function Rows r -> Array.length r | View v -> v.rows
let row_data m i = match m with Rows r -> r.(i) | View v -> v.data
let row_off m i = match m with Rows _ -> 0 | View v -> v.off + (i * v.rs)
let row_cs = function Rows _ -> 1 | View v -> v.cs

let row_cols m i = match m with Rows r -> Array.length r.(i) | View v -> v.cols

let stamps = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add stamps 1 + 1

type t = {
  (* the query slot: flat binary/nibble packs for one query batch at
     one subarray width, keyed on the batch (see [packs_for]) *)
  mutable sq_key : matrix;
  mutable sq_cols : int;
  mutable nq : Kernel.flat; (* q_count x fnwords_for cols *)
  mutable nq_has : Bytes.t; (* '\001' when the query packed *)
  mutable bq : Kernel.flat;
  mutable bq_has : Bytes.t;
  mutable bq_filled : bool; (* binary side is packed lazily *)
  (* per-query kernel-dispatch tally slots, zeroed on acquire *)
  mutable kb : int array;
  mutable kn : int array;
  mutable kg : int array;
  mutable ke : int array;
  (* top-k result arenas *)
  mutable sel_q : int;
  mutable sel_k : int;
  mutable sel_values : float array array;
  mutable sel_indices : int array array;
}

let empty = Rows [||]

let create () =
  {
    sq_key = empty;
    sq_cols = -1;
    nq = [||];
    nq_has = Bytes.empty;
    bq = [||];
    bq_has = Bytes.empty;
    bq_filled = false;
    kb = [||];
    kn = [||];
    kg = [||];
    ke = [||];
    sel_q = -1;
    sel_k = -1;
    sel_values = [||];
    sel_indices = [||];
  }

let key : t Domain.DLS.key = Domain.DLS.new_key create
let get () = Domain.DLS.get key

let grow_ints a n = if Array.length a >= n then a else Array.make n 0

(* Pack every query of the slot's batch with [pack] into [dst]; the
   flags mark the queries that packed. *)
let fill t pack words dst has =
  let m = t.sq_key and cols = t.sq_cols in
  for qi = 0 to row_count m - 1 do
    Bytes.unsafe_set has qi
      (if
         pack ~cols (row_data m qi) ~src:(row_off m qi) ~cs:(row_cs m)
           ~width:(row_cols m qi) dst ~off:(qi * words)
       then '\001'
       else '\000')
  done

(* Ensure the nibble packs describe [queries] at width [cols]; a batch
   searched against T row tiles packs once and hits on tiles 2..T.
   Rows key on the rows array's physical identity; a view on its
   backing's, its window and its run's stamp, so a new run (or a refill
   of the backing between runs) never meets an old slot. *)
let packs_for ~cols queries =
  let t = get () in
  let same =
    match (t.sq_key, queries) with
    | Rows x, Rows y -> x == y
    | View x, View y ->
        x.data == y.data && x.off = y.off && x.rs = y.rs && x.cs = y.cs
        && x.rows = y.rows && x.cols = y.cols && x.stamp = y.stamp
    | _ -> false
  in
  if not (t.sq_cols = cols && same) then begin
    let q = row_count queries in
    let fnw = Kernel.fnwords_for cols in
    t.nq <- grow_ints t.nq (q * fnw);
    t.bq <- grow_ints t.bq (q * Kernel.fbwords_for cols);
    if Bytes.length t.nq_has < q then begin
      t.nq_has <- Bytes.make q '\000';
      t.bq_has <- Bytes.make q '\000'
    end;
    t.sq_key <- queries;
    t.sq_cols <- cols;
    fill t Kernel.pack_nibble_at fnw t.nq t.nq_has;
    t.bq_filled <- false
  end;
  t

(* Fill the binary packs for the current batch; a batch searched only
   against nibble windows never pays for them. *)
let ensure_binary t =
  if not t.bq_filled then begin
    fill t Kernel.pack_binary_at (Kernel.fbwords_for t.sq_cols) t.bq t.bq_has;
    t.bq_filled <- true
  end

let drop_queries data =
  let t = get () in
  match t.sq_key with
  | View v when v.data == data ->
      t.sq_key <- empty;
      t.sq_cols <- -1
  | _ -> ()

(* Zeroed per-query dispatch counters of at least [n] slots. *)
let counters t ~n =
  t.kb <- grow_ints t.kb n;
  t.kn <- grow_ints t.kn n;
  t.kg <- grow_ints t.kg n;
  t.ke <- grow_ints t.ke n;
  Array.fill t.kb 0 n 0;
  Array.fill t.kn 0 n 0;
  Array.fill t.kg 0 n 0;
  Array.fill t.ke 0 n 0

(* Top-k result arenas: reused while the (queries, k) geometry holds.
   Consumers copy the rows out at the API boundary (see
   Simulator.select_best). *)
let select_buffers t ~q ~k =
  if not (t.sel_q = q && t.sel_k = k) then begin
    t.sel_values <- Array.init q (fun _ -> Array.make k 0.);
    t.sel_indices <- Array.init q (fun _ -> Array.make k 0);
    t.sel_q <- q;
    t.sel_k <- k
  end;
  (t.sel_values, t.sel_indices)
