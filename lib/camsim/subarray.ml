(* Cell kinds of the flat storage, one byte per cell. *)
let k_value = '\000'
let k_dont_care = '\001'
let k_range = '\002'

type t = {
  n_rows : int;
  n_cols : int;
  bits : int;
  (* Flat cell storage: one byte of cell kind plus the value (or range
     low) and range high per cell, indexed [row * n_cols + col]. Float
     arrays are unboxed, so the scalar kernels below read and compare
     without allocating. Only range cells read [chi], so it stays empty
     until the first range write. *)
  ck : Bytes.t;
  clo : float array;
  mutable chi : float array;
  (* Flat packed payloads for the Hamming fast paths, [fbw]/[fnw]
     immediate int words per row (see Kernel): binary rows (all cells
     in {0,1}) and nibble rows (integer cells in [0,16)). A row's
     window is only meaningful when its class says so — binary rows
     keep both packs, nibble rows the nibble pack. *)
  fbw : int;
  fnw : int;
  bpack : Kernel.flat;
  npack : Kernel.flat;
  (* Kernel class per row plus summary counts, maintained at write
     time, so a search classifies a whole row window in O(rows) — O(1)
     for uniform subarrays — and dispatches one kernel per window
     instead of matching per row per query. *)
  classes : Kernel.cls array;
  (* Per row, the length of its leading run of range cells (0 for a
     row whose first cell is not a range cell): a Hamming search over a
     window whose every row's run covers the query takes the
     whole-window range loop. Range rows stay [Generic] in [classes].
     Like [chi], it stays empty until the first range write. *)
  mutable range_w : int array;
  mutable n_class_binary : int;
  mutable n_class_nibble : int;
  mutable n_class_generic : int;
  (* Highest kernel tier the dispatcher may use; [`Binary] (the
     default) allows all three. Test/bench hook: every tier must
     produce byte-identical results. *)
  mutable kernel_cap : [ `Binary | `Nibble | `Generic ];
  mutable last : float array array option;
  (* Result-matrix arena: when [reuse_results] is on (the simulator
     enables it — every consumer above copies at the API boundary) a
     search with the same (queries, rows) geometry overwrites the
     previous matrix instead of allocating a fresh one. *)
  mutable reuse_results : bool;
  mutable res : float array array;
  mutable res_q : int;
  mutable res_rows : int;
}

let create ~rows ~cols ~bits =
  if rows < 1 || cols < 1 then invalid_arg "Subarray.create: empty geometry";
  let fbw = Kernel.fbwords_for cols and fnw = Kernel.fnwords_for cols in
  {
    n_rows = rows;
    n_cols = cols;
    bits;
    ck = Bytes.make (rows * cols) k_value;
    clo = Array.make (rows * cols) 0.;
    chi = [||];
    fbw;
    fnw;
    bpack = Array.make (rows * fbw) 0;
    npack = Array.make (rows * fnw) 0;
    classes = Array.make rows Kernel.Generic;
    range_w = [||];
    n_class_binary = 0;
    n_class_nibble = 0;
    n_class_generic = rows;
    kernel_cap = `Binary;
    last = None;
    reuse_results = false;
    res = [||];
    res_q = -1;
    res_rows = -1;
  }

let set_reuse_results t on = t.reuse_results <- on

let with_kernel_cap t cap f =
  let prev = t.kernel_cap in
  t.kernel_cap <- cap;
  Fun.protect ~finally:(fun () -> t.kernel_cap <- prev) f

let class_counts t =
  (t.n_class_binary, t.n_class_nibble, t.n_class_generic)

(* --- row classification ------------------------------------------------ *)

let set_row_class t r cls =
  let old = t.classes.(r) in
  if old <> cls then begin
    (match old with
    | Kernel.Binary -> t.n_class_binary <- t.n_class_binary - 1
    | Kernel.Nibble -> t.n_class_nibble <- t.n_class_nibble - 1
    | Kernel.Generic -> t.n_class_generic <- t.n_class_generic - 1);
    (match cls with
    | Kernel.Binary -> t.n_class_binary <- t.n_class_binary + 1
    | Kernel.Nibble -> t.n_class_nibble <- t.n_class_nibble + 1
    | Kernel.Generic -> t.n_class_generic <- t.n_class_generic + 1);
    t.classes.(r) <- cls
  end

(* Class of a row window: a uniform class dispatches one whole-window
   kernel; [Generic] means mixed (or truly generic) and falls back to
   per-row dispatch. The summary counts answer uniform subarrays
   without touching the per-row array. *)
let window_class t ~row_offset ~rows =
  if t.n_class_binary = t.n_rows then Kernel.Binary
  else if t.n_class_generic = t.n_rows then Kernel.Generic
  else begin
    let cls = ref Kernel.Binary in
    (try
       for r = row_offset to row_offset + rows - 1 do
         match Array.unsafe_get t.classes r with
         | Kernel.Generic ->
             cls := Kernel.Generic;
             raise Exit
         | Kernel.Nibble -> cls := Kernel.Nibble
         | Kernel.Binary -> ()
       done
     with Exit -> ());
    !cls
  end

let cap_class cap cls =
  match (cap, cls) with
  | `Binary, c -> c
  | `Nibble, Kernel.Binary -> Kernel.Nibble
  | `Nibble, c -> c
  | `Generic, _ -> Kernel.Generic

(* Recount row [r]'s leading range run after a write. Every write
   programs a prefix of the row, so a run can both grow and shrink. *)
let set_range_width t r =
  if Array.length t.range_w > 0 then begin
    let base = r * t.n_cols in
    let w = ref 0 in
    while !w < t.n_cols && Bytes.unsafe_get t.ck (base + !w) = k_range do
      incr w
    done;
    t.range_w.(r) <- !w
  end

(* The narrowest leading range run over a row window: a query of at
   most this width meets only range cells in every row. 0 when some
   row of the window starts with another cell kind; the scan stops at
   the first such row. *)
let window_range_width t ~row_offset ~rows =
  if Array.length t.range_w = 0 then 0
  else begin
    let w = ref t.n_cols and r = ref row_offset in
    while !w > 0 && !r < row_offset + rows do
      w := min !w (Array.unsafe_get t.range_w !r);
      incr r
    done;
    !w
  end

(* --- writes ----------------------------------------------------------- *)

let check_window t ~row_offset ~rows =
  if row_offset < 0 || rows < 1 || row_offset + rows > t.n_rows then
    invalid_arg
      (Printf.sprintf "Subarray: row window [%d, %d) out of [0, %d)"
         row_offset (row_offset + rows) t.n_rows)

let write t ?(row_offset = 0) ?care data =
  let n = Array.length data in
  check_window t ~row_offset ~rows:n;
  Array.iteri
    (fun i row ->
      if Array.length row > t.n_cols then
        invalid_arg "Subarray.write: row wider than the subarray";
      let r = row_offset + i in
      let base = r * t.n_cols in
      let all_care = ref true in
      Array.iteri
        (fun j v ->
          match care with
          | Some m when not m.(i).(j) ->
              all_care := false;
              Bytes.unsafe_set t.ck (base + j) k_dont_care
          | _ ->
              Bytes.unsafe_set t.ck (base + j) k_value;
              Array.unsafe_set t.clo (base + j) v)
        row;
      (* binary-packable rows are a subset of nibble-packable ones *)
      let nibble =
        !all_care
        && Kernel.pack_nibble_at ~cols:t.n_cols row ~src:0 ~cs:1
             ~width:(Array.length row) t.npack ~off:(r * t.fnw)
      in
      let binary =
        nibble
        && Kernel.pack_binary_at ~cols:t.n_cols row ~src:0 ~cs:1
             ~width:(Array.length row) t.bpack ~off:(r * t.fbw)
      in
      set_row_class t r
        (if binary then Kernel.Binary
         else if nibble then Kernel.Nibble
         else Kernel.Generic);
      set_range_width t r)
    data

let write_range t ~row_offset ~lo ~hi =
  let n = Array.length lo in
  if Array.length hi <> n then
    invalid_arg "Subarray.write_range: lo/hi row count mismatch";
  check_window t ~row_offset ~rows:n;
  if Array.length t.chi = 0 then begin
    t.chi <- Array.make (Array.length t.clo) 0.;
    t.range_w <- Array.make t.n_rows 0
  end;
  Array.iteri
    (fun i lo_row ->
      let hi_row = hi.(i) in
      if Array.length lo_row <> Array.length hi_row then
        invalid_arg "Subarray.write_range: lo/hi width mismatch";
      let r = row_offset + i in
      let base = r * t.n_cols in
      Array.iteri
        (fun j l ->
          Bytes.set t.ck (base + j) k_range;
          t.clo.(base + j) <- l;
          t.chi.(base + j) <- hi_row.(j))
        lo_row;
      set_row_class t r Kernel.Generic;
      set_range_width t r)
    lo

(* One loop over the incoming cells; the incoming cell [j] is
   [data.(off + j*cs)] (with [hi] at the same index for a range row). *)
let row_differs t ~row ?care ?hi data ~off ~cs ~cols =
  if row < 0 || row >= t.n_rows then invalid_arg "Subarray.row_differs";
  cols > t.n_cols
  || begin
       let base = row * t.n_cols and j = ref 0 and same = ref true in
       while !same && !j < cols do
         let c = base + !j and k = off + (!j * cs) in
         let ck = Bytes.unsafe_get t.ck c in
         (same :=
            match (hi, care) with
            | Some h, _ ->
                ck = k_range
                && Float.compare (Array.unsafe_get t.clo c) data.(k) = 0
                && Float.compare (Array.unsafe_get t.chi c) h.(k) = 0
            | None, Some m when not m.(!j) -> ck = k_dont_care
            | None, _ ->
                ck = k_value
                && Float.compare (Array.unsafe_get t.clo c) data.(k) = 0);
         incr j
       done;
       not !same
     end

let read_row t r =
  if r < 0 || r >= t.n_rows then invalid_arg "Subarray.read_row";
  let base = r * t.n_cols in
  Array.init t.n_cols (fun j ->
      match Bytes.unsafe_get t.ck (base + j) with
      | c when c = k_dont_care -> Float.nan
      | _ -> t.clo.(base + j))

(* --- scalar (generic) row kernels -------------------------------------- *)

(* All scalar kernels walk the flat cell storage from [base] and read
   query cell [j] at [qd.(qo + j*qc)] — the stride math of
   [row_differs] — through a running index, so a row array ([qo = 0],
   [qc = 1]) and a window over a backing store take the same loop at
   one add per cell. Callers bound the query's extent first
   ([check_queries]); reads, float compares and the int/float
   accumulators allocate nothing. *)

let hamming_row t ~base qd qo qc width =
  let ck = t.ck and clo = t.clo and chi = t.chi in
  let d = ref 0 and k = ref qo in
  for j = 0 to width - 1 do
    let q = Array.unsafe_get qd !k in
    k := !k + qc;
    match Bytes.unsafe_get ck (base + j) with
    | '\000' -> d := !d + Bool.to_int (Array.unsafe_get clo (base + j) <> q)
    | '\001' -> ()
    | _ ->
        d :=
          !d
          + (Bool.to_int (q < Array.unsafe_get clo (base + j))
            lor Bool.to_int (q > Array.unsafe_get chi (base + j)))
  done;
  float_of_int !d

(* The whole-window range loop: every row of the window holds range
   cells over the query's [width] ([window_range_width]), so the cell
   kind is known and each count goes straight into [out] unboxed. The
   violation is the scalar arm's exactly: [lor] counts an inverted box
   (lo > hi) once per cell, as [||] does, and a nan compares false
   both ways. *)
let range_window t ~row_offset ~rows qd qo qc width (out : float array) =
  let clo = t.clo and chi = t.chi and n_cols = t.n_cols in
  for i = 0 to rows - 1 do
    let base = (row_offset + i) * n_cols in
    let d = ref 0 and k = ref qo in
    for j = base to base + width - 1 do
      let q = Array.unsafe_get qd !k in
      k := !k + qc;
      d :=
        !d
        + (Bool.to_int (q < Array.unsafe_get clo j)
          lor Bool.to_int (q > Array.unsafe_get chi j))
    done;
    Array.unsafe_set out i (float_of_int !d)
  done

let euclidean_row t ~base qd qo qc width =
  let ck = t.ck and clo = t.clo and chi = t.chi in
  let d = ref 0. and k = ref qo in
  for j = 0 to width - 1 do
    let q = Array.unsafe_get qd !k in
    k := !k + qc;
    match Bytes.unsafe_get ck (base + j) with
    | '\000' ->
        let diff = Array.unsafe_get clo (base + j) -. q in
        d := !d +. (diff *. diff)
    | '\001' -> ()
    | _ ->
        let lo = Array.unsafe_get clo (base + j) in
        if q < lo then d := !d +. ((lo -. q) *. (lo -. q))
        else begin
          let hi = Array.unsafe_get chi (base + j) in
          if q > hi then d := !d +. ((q -. hi) *. (q -. hi))
        end
  done;
  !d

(* Threshold variants: stop as soon as the running count/sum exceeds
   the threshold — both accumulators only grow (float addition of
   non-negative terms is monotone under rounding), so the match outcome
   is already decided. Results use the Kernel.th_* bit encoding (match,
   early) so a threshold sweep allocates no tuples. *)
let hamming_row_threshold t ~base qd qo qc width ~threshold =
  let ck = t.ck and clo = t.clo and chi = t.chi in
  let d = ref 0 and k = ref qo in
  let code = ref 0 in
  (try
     for j = 0 to width - 1 do
       let q = Array.unsafe_get qd !k in
       k := !k + qc;
       (match Bytes.unsafe_get ck (base + j) with
       | '\000' -> d := !d + Bool.to_int (Array.unsafe_get clo (base + j) <> q)
       | '\001' -> ()
       | _ ->
           d :=
             !d
             + (Bool.to_int (q < Array.unsafe_get clo (base + j))
               lor Bool.to_int (q > Array.unsafe_get chi (base + j))));
       if float_of_int !d > threshold then begin
         if j < width - 1 then code := Kernel.th_early;
         raise Exit
       end
     done
   with Exit -> ());
  if float_of_int !d <= threshold then !code lor Kernel.th_match else !code

let euclidean_row_threshold t ~base qd qo qc width ~threshold =
  let ck = t.ck and clo = t.clo and chi = t.chi in
  let d = ref 0. and k = ref qo in
  let code = ref 0 in
  (try
     for j = 0 to width - 1 do
       let q = Array.unsafe_get qd !k in
       k := !k + qc;
       (match Bytes.unsafe_get ck (base + j) with
       | '\000' ->
           let diff = Array.unsafe_get clo (base + j) -. q in
           d := !d +. (diff *. diff)
       | '\001' -> ()
       | _ ->
           let lo = Array.unsafe_get clo (base + j) in
           if q < lo then d := !d +. ((lo -. q) *. (lo -. q))
           else begin
             let hi = Array.unsafe_get chi (base + j) in
             if q > hi then d := !d +. ((q -. hi) *. (q -. hi))
           end);
       if !d > threshold then begin
         if j < width - 1 then code := Kernel.th_early;
         raise Exit
       end
     done
   with Exit -> ());
  if !d <= threshold then !code lor Kernel.th_match else !code

(* --- searches ---------------------------------------------------------- *)

(* Below this many distance evaluations a batch is dispatched
   sequentially: the pool's locking overhead would dominate. *)
let parallel_threshold = 256

(* Rows per block of the cache-blocked fast paths: a tile of queries
   sweeps one block at a time so its packed words stay hot. *)
let row_block = 128

(* Fold the per-query dispatch tallies into the stats ledger after the
   join (per-query slots, so parallel tiles never contend and the
   totals are identical for any jobs value). *)
let fold_counters stats (sc : Scratch.t) ~n =
  match stats with
  | None -> ()
  | Some (s : Stats.t) ->
      let sum a =
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := !acc + Array.unsafe_get a i
        done;
        !acc
      in
      s.n_kernel_binary <- s.n_kernel_binary + sum sc.Scratch.kb;
      s.n_kernel_nibble <- s.n_kernel_nibble + sum sc.Scratch.kn;
      s.n_kernel_generic <- s.n_kernel_generic + sum sc.Scratch.kg;
      s.n_kernel_early_exit <- s.n_kernel_early_exit + sum sc.Scratch.ke

(* Run [fill_tile qlo qhi] over the query batch, chunked into query
   tiles across the ambient pool when the batch is big enough. Tile
   geometry only affects the schedule: every result and counter slot
   is owned by its query index. *)
let dispatch_tiles ~q_count ~rows fill_tile =
  let j = Parallel.current_jobs () in
  if q_count * rows >= parallel_threshold && j > 1 then begin
    let tile = max 1 (q_count / (4 * j)) in
    let n_tiles = (q_count + tile - 1) / tile in
    Parallel.parallel_for ~lo:0 ~hi:n_tiles (fun ti ->
        fill_tile (ti * tile) (min q_count ((ti + 1) * tile)))
  end
  else fill_tile 0 q_count

(* A query wider than the subarray is refused; so is a view reaching
   outside its backing store (or with a negative offset or stride),
   which the scalar kernels read unchecked. *)
let check_queries t (w : Scratch.matrix) =
  let wide = "Subarray.search: query wider than the subarray" in
  match w with
  | Rows r ->
      Array.iter (fun q -> if Array.length q > t.n_cols then invalid_arg wide) r
  | View v ->
      if v.cols > t.n_cols then invalid_arg wide;
      if
        v.rows > 0 && v.cols > 0
        && (v.off < 0 || v.rs < 0 || v.cs < 0
           || v.off + ((v.rows - 1) * v.rs) + ((v.cols - 1) * v.cs)
              >= Array.length v.data)
      then invalid_arg "Subarray.search: query view outside its backing"

(* The result matrix: a fresh allocation normally; the arena when the
   simulator turned on reuse and the geometry matches. Every slot is
   overwritten by the fill, so no zeroing is needed. *)
let acquire_results t ~q_count ~rows =
  if t.reuse_results && t.res_q = q_count && t.res_rows = rows then t.res
  else begin
    let m = Array.init q_count (fun _ -> Array.make rows 0.) in
    if t.reuse_results then begin
      t.res <- m;
      t.res_q <- q_count;
      t.res_rows <- rows
    end;
    m
  end

(* Classify the window and pack the queries into the per-domain arena.
   [None] when every row must take the scalar path (non-Hamming metric
   or a [`Generic] cap); otherwise the capped window class, the arena
   holding the packs, and whether the binary tier may be used. All
   packing happens before the parallel region. *)
let classify t w ~row_offset ~rows ~metric =
  let cap = t.kernel_cap in
  if metric <> `Hamming || cap = `Generic then None
  else begin
    let wcls = cap_class cap (window_class t ~row_offset ~rows) in
    let packs = Scratch.packs_for ~cols:t.n_cols w in
    let use_b =
      cap = `Binary
      && (wcls = Kernel.Binary
         || (wcls = Kernel.Generic && t.n_class_binary > 0))
    in
    if use_b then Scratch.ensure_binary packs;
    Some (wcls, packs, use_b)
  end

let distances ?stats t w ~row_offset ~rows ~metric =
  check_window t ~row_offset ~rows;
  check_queries t w;
  let q_count = Scratch.row_count w and qc = Scratch.row_cs w in
  (* an all-range window is all [Generic] rows: no query packs *)
  let range_w =
    if metric = `Hamming then window_range_width t ~row_offset ~rows else 0
  in
  let cls =
    if range_w > 0 then None else classify t w ~row_offset ~rows ~metric
  in
  let sc = Scratch.get () in
  Scratch.counters sc ~n:q_count;
  let kb = sc.Scratch.kb and kn = sc.Scratch.kn and kg = sc.Scratch.kg in
  let result = acquire_results t ~q_count ~rows in
  let fbw = t.fbw and fnw = t.fnw in
  let fill_tile qlo qhi =
    match cls with
    | Some (((Kernel.Binary | Kernel.Nibble) as wcls), packs, use_b) ->
        (* one whole-window kernel per query, cache-blocked over rows *)
        let b = ref 0 in
        while !b < rows do
          let hi = min rows (!b + row_block) in
          for qi = qlo to qhi - 1 do
            let out = result.(qi) in
            if
              wcls = Kernel.Binary && use_b
              && Bytes.unsafe_get packs.Scratch.bq_has qi = '\001'
            then begin
              kb.(qi) <- kb.(qi) + (hi - !b);
              let pq = packs.Scratch.bq and qoff = qi * fbw in
              if fbw = 2 then begin
                (* rows of one logical word (cols <= 64): the query's
                   two halves are read once, and the inlined fold
                   spares each pair a kernel call *)
                let q0 = Array.unsafe_get pq qoff
                and q1 = Array.unsafe_get pq (qoff + 1)
                and bp = t.bpack in
                for i = !b to hi - 1 do
                  let r = 2 * (row_offset + i) in
                  Array.unsafe_set out i
                    (float_of_int
                       (Kernel.pop_word
                          (q0 lxor Array.unsafe_get bp r)
                          (q1 lxor Array.unsafe_get bp (r + 1))))
                done
              end
              else
                for i = !b to hi - 1 do
                  Array.unsafe_set out i
                    (float_of_int
                       (Kernel.hamming_binary_flat pq ~qoff t.bpack
                          ~roff:((row_offset + i) * fbw) ~iwords:fbw))
                done
            end
            else if Bytes.unsafe_get packs.Scratch.nq_has qi = '\001' then begin
              kn.(qi) <- kn.(qi) + (hi - !b);
              let pq = packs.Scratch.nq and qoff = qi * fnw in
              for i = !b to hi - 1 do
                Array.unsafe_set out i
                  (float_of_int
                     (Kernel.hamming_nibble_flat pq ~qoff t.npack
                        ~roff:((row_offset + i) * fnw) ~iwords:fnw))
              done
            end
            else begin
              (* partial-width or unpackable query *)
              kg.(qi) <- kg.(qi) + (hi - !b);
              let qd = Scratch.row_data w qi and qo = Scratch.row_off w qi in
              let width = Scratch.row_cols w qi in
              for i = !b to hi - 1 do
                out.(i) <-
                  hamming_row t ~base:((row_offset + i) * t.n_cols) qd qo qc
                    width
              done
            end
          done;
          b := hi
        done
    | Some (Kernel.Generic, packs, use_b) ->
        (* mixed window: dispatch per row, packed rows still take their
           kernels when the query packs allow *)
        for qi = qlo to qhi - 1 do
          let qd = Scratch.row_data w qi and qo = Scratch.row_off w qi in
          let width = Scratch.row_cols w qi in
          let out = result.(qi) in
          let has_bq =
            use_b && Bytes.unsafe_get packs.Scratch.bq_has qi = '\001'
          in
          let has_nq = Bytes.unsafe_get packs.Scratch.nq_has qi = '\001' in
          for i = 0 to rows - 1 do
            let r = row_offset + i in
            out.(i) <-
              (match Array.unsafe_get t.classes r with
              | Kernel.Binary when has_bq ->
                  kb.(qi) <- kb.(qi) + 1;
                  float_of_int
                    (Kernel.hamming_binary_flat packs.Scratch.bq
                       ~qoff:(qi * fbw) t.bpack ~roff:(r * fbw) ~iwords:fbw)
              | (Kernel.Binary | Kernel.Nibble) when has_nq ->
                  kn.(qi) <- kn.(qi) + 1;
                  float_of_int
                    (Kernel.hamming_nibble_flat packs.Scratch.nq
                       ~qoff:(qi * fnw) t.npack ~roff:(r * fnw) ~iwords:fnw)
              | _ ->
                  kg.(qi) <- kg.(qi) + 1;
                  hamming_row t ~base:(r * t.n_cols) qd qo qc width)
          done
        done
    | None ->
        (* scalar everything: Euclidean, a [`Generic] cap or an
           all-range window *)
        for qi = qlo to qhi - 1 do
          let qd = Scratch.row_data w qi and qo = Scratch.row_off w qi in
          let width = Scratch.row_cols w qi in
          let out = result.(qi) in
          kg.(qi) <- kg.(qi) + rows;
          match metric with
          | `Euclidean ->
              for i = 0 to rows - 1 do
                out.(i) <-
                  euclidean_row t ~base:((row_offset + i) * t.n_cols) qd qo qc
                    width
              done
          | `Hamming when width <= range_w ->
              range_window t ~row_offset ~rows qd qo qc width out
          | `Hamming ->
              for i = 0 to rows - 1 do
                out.(i) <-
                  hamming_row t ~base:((row_offset + i) * t.n_cols) qd qo qc
                    width
              done
        done
  in
  dispatch_tiles ~q_count ~rows fill_tile;
  fold_counters stats sc ~n:q_count;
  result

let search_window ?stats t w ~row_offset ~rows ~metric =
  let result = distances ?stats t w ~row_offset ~rows ~metric in
  t.last <- Some result;
  result

let search_threshold_window ?stats t w ~row_offset ~rows ~metric ~threshold =
  check_window t ~row_offset ~rows;
  check_queries t w;
  let q_count = Scratch.row_count w and qc = Scratch.row_cs w in
  let cls = classify t w ~row_offset ~rows ~metric in
  let sc = Scratch.get () in
  Scratch.counters sc ~n:q_count;
  let kb = sc.Scratch.kb
  and kn = sc.Scratch.kn
  and kg = sc.Scratch.kg
  and ke = sc.Scratch.ke in
  let matches = acquire_results t ~q_count ~rows in
  let fbw = t.fbw and fnw = t.fnw in
  let fill_tile qlo qhi =
    for qi = qlo to qhi - 1 do
      let qd = Scratch.row_data w qi and qo = Scratch.row_off w qi in
      let width = Scratch.row_cols w qi in
      let out = matches.(qi) in
      let store i code =
        if code land Kernel.th_early <> 0 then ke.(qi) <- ke.(qi) + 1;
        out.(i) <- (if code land Kernel.th_match <> 0 then 1. else 0.)
      in
      match cls with
      | Some (Kernel.Binary, packs, use_b)
        when use_b && Bytes.unsafe_get packs.Scratch.bq_has qi = '\001' ->
          kb.(qi) <- kb.(qi) + rows;
          let pq = packs.Scratch.bq and qoff = qi * fbw in
          for i = 0 to rows - 1 do
            store i
              (Kernel.hamming_binary_flat_threshold pq ~qoff t.bpack
                 ~roff:((row_offset + i) * fbw) ~iwords:fbw ~threshold)
          done
      | Some (Kernel.Nibble, packs, _)
        when Bytes.unsafe_get packs.Scratch.nq_has qi = '\001' ->
          kn.(qi) <- kn.(qi) + rows;
          let pq = packs.Scratch.nq and qoff = qi * fnw in
          for i = 0 to rows - 1 do
            store i
              (Kernel.hamming_nibble_flat_threshold pq ~qoff t.npack
                 ~roff:((row_offset + i) * fnw) ~iwords:fnw ~threshold)
          done
      | _ ->
          (* Euclidean, mixed window, partial-width or unpackable
             query: the per-row packed kernels don't early-exit, so use
             the scalar threshold loop throughout — counters attribute
             these rows to the generic tier *)
          kg.(qi) <- kg.(qi) + rows;
          (match metric with
          | `Euclidean ->
              for i = 0 to rows - 1 do
                store i
                  (euclidean_row_threshold t
                     ~base:((row_offset + i) * t.n_cols) qd qo qc width
                     ~threshold)
              done
          | `Hamming ->
              for i = 0 to rows - 1 do
                store i
                  (hamming_row_threshold t
                     ~base:((row_offset + i) * t.n_cols) qd qo qc width
                     ~threshold)
              done)
    done
  in
  dispatch_tiles ~q_count ~rows fill_tile;
  fold_counters stats sc ~n:q_count;
  (* only the 0/1 match matrix is ever latched — the intermediate
     distances stay private to the kernels *)
  t.last <- Some matches;
  matches

(* The rows forms: the same searches over materialized rows, keyed in
   the query slot on the rows array's identity. *)
let search ?stats t ~queries ~row_offset ~rows ~metric =
  search_window ?stats t (Scratch.Rows queries) ~row_offset ~rows ~metric

(* Range match is Hamming-style violation counting: the generic path's
   [Range] cell case, or the whole-window range loop. *)
let search_range ?stats t ~queries ~row_offset ~rows =
  search ?stats t ~queries ~row_offset ~rows ~metric:`Hamming

let search_threshold ?stats t ~queries ~row_offset ~rows ~metric ~threshold =
  search_threshold_window ?stats t (Scratch.Rows queries) ~row_offset ~rows
    ~metric ~threshold

let read t =
  match t.last with
  | Some r -> r
  | None -> invalid_arg "Subarray.read: no search has been performed"
