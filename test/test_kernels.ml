(* Tiered distance kernels (docs/KERNELS.md): the flat packed
   binary/nibble kernels against the scalar reference, write-time row
   classification, cap-differential equality on randomized mixed-class
   contents, stats invariance across jobs values, and executor
   agreement. *)

module K = Camsim.Kernel
module S = Camsim.Subarray

(* exact structural equality — the kernel contract is byte-identical
   results, not epsilon-close ones *)
let check_exact name want got =
  Alcotest.(check bool) (name ^ " byte-identical") true (want = got)

(* ---- the packed primitives -------------------------------------------- *)

let scalar_hamming a b =
  let d = ref 0 in
  Array.iteri (fun i v -> if v <> b.(i) then incr d) a;
  !d

(* [row] packed into a store of [slots] rows at slot [slot]; the other
   slots hold garbage, which the pack must not read or keep. *)
let pack_into ?(slots = 1) ?(slot = 0) words pack_at row =
  let cols = Array.length row and n = words (Array.length row) in
  let store = Array.make (slots * n) (-1) in
  if pack_at ~cols row ~src:0 ~cs:1 ~width:cols store ~off:(slot * n) then
    Some (store, slot * n)
  else None

let binary ?slots ?slot row =
  pack_into ?slots ?slot K.fbwords_for K.pack_binary_at row

let nibble ?slots ?slot row =
  pack_into ?slots ?slot K.fnwords_for K.pack_nibble_at row

let binary_distance a b =
  match (binary ~slots:3 ~slot:1 a, binary ~slots:2 ~slot:1 b) with
  | Some (qa, qoff), Some (rb, roff) ->
      K.hamming_binary_flat qa ~qoff rb ~roff
        ~iwords:(K.fbwords_for (Array.length a))
  | _ -> -1

let nibble_distance a b =
  match (nibble ~slots:3 ~slot:1 a, nibble ~slots:2 ~slot:1 b) with
  | Some (qa, qoff), Some (rb, roff) ->
      K.hamming_nibble_flat qa ~qoff rb ~roff
        ~iwords:(K.fnwords_for (Array.length a))
  | _ -> -1

let naive_popcount w =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical w i) 1L = 1L then incr c
  done;
  !c

(* The binary kernel's popcount, through a 64-cell row holding a word's
   bits against the all-zero row. *)
let test_popcount () =
  let bits w =
    Array.init 64 (fun i ->
        Int64.to_float (Int64.logand (Int64.shift_right_logical w i) 1L))
  in
  let popcount w = binary_distance (bits w) (bits 0L) in
  Alcotest.(check int) "zero" 0 (popcount 0L);
  Alcotest.(check int) "all ones" 64 (popcount (-1L));
  Alcotest.(check int) "one bit" 1 (popcount Int64.min_int);
  let rng = Rng.create 17 in
  for _ = 1 to 500 do
    let w = Rng.next_int64 rng in
    Alcotest.(check int) "random word" (naive_popcount w) (popcount w)
  done

let test_packability () =
  let packs v = nibble [| v |] <> None in
  Alcotest.(check bool) "15 packs" true (packs 15.);
  Alcotest.(check bool) "16 does not" false (packs 16.);
  Alcotest.(check bool) "negative does not" false (packs (-1.));
  Alcotest.(check bool) "fraction does not" false (packs 0.5);
  Alcotest.(check bool) "nan does not" false (packs Float.nan);
  Alcotest.(check bool) "neg zero packs" true (packs (-0.));
  let row = [| 0.; 1.; 1.; 0. |] in
  Alcotest.(check bool) "binary row packs both ways" true
    (binary row <> None && nibble row <> None);
  Alcotest.(check bool) "width mismatch rejected" true
    ((not (K.pack_binary_at ~cols:5 row ~src:0 ~cs:1 ~width:4
             (Array.make 2 0) ~off:0))
    && not
         (K.pack_nibble_at ~cols:5 row ~src:0 ~cs:1 ~width:4 (Array.make 2 0)
            ~off:0));
  Alcotest.(check bool) "nibble row is not binary" true
    (binary [| 1.; 7. |] = None && nibble [| 1.; 7. |] <> None);
  (* the window is cleared before packing: stale words never leak in *)
  Alcotest.(check int) "stale window cleared" 0
    (binary_distance row row + nibble_distance row row)

let prop_packed_hamming ~maxval =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "packed hamming = scalar (values < %d)" maxval)
    (QCheck.make QCheck.Gen.(pair (int_range 1 130) int))
    (fun (cols, seed) ->
      let rng = Rng.create seed in
      let mk () =
        Array.init cols (fun _ -> float_of_int (Rng.int rng maxval))
      in
      let a = mk () and b = mk () in
      let want = scalar_hamming a b in
      nibble_distance a b = want
      && (maxval > 2 || binary_distance a b = want))

(* A flat threshold result decides exactly like the full distance, and
   an early exit is only ever taken once the threshold is exceeded. *)
let prop_threshold_kernels =
  QCheck.Test.make ~count:300 ~name:"threshold kernels decide like the full distance"
    (QCheck.make QCheck.Gen.(pair (int_range 1 100) (pair int (int_range 0 40))))
    (fun (cols, (seed, th)) ->
      let threshold = float_of_int th in
      let rng = Rng.create seed in
      let mk m = Array.init cols (fun _ -> float_of_int (Rng.int rng m)) in
      let decides pack words kernel a b =
        match (pack a, pack b) with
        | Some (qa, qoff), Some (rb, roff) ->
            let r =
              kernel qa ~qoff rb ~roff ~iwords:(words cols) ~threshold
            in
            let full = scalar_hamming a b in
            r land K.th_match <> 0 = (full <= th)
            && (r land K.th_early = 0 || full > th)
        | _ -> false
      in
      decides binary K.fbwords_for K.hamming_binary_flat_threshold (mk 2) (mk 2)
      && decides nibble K.fnwords_for K.hamming_nibble_flat_threshold (mk 16)
           (mk 16))

(* The folded binary kernels (one SWAR fold per logical 64-cell word)
   against the scalar count, at widths that end inside, on and past
   word boundaries. Each row sits at a random offset in a store whose
   other words are arbitrary ints, so a kernel reading outside its
   window shows. The threshold variant must decide like the full distance and
   report an early exit exactly when a prefix of whole logical words
   below the last already exceeds the threshold. *)
let prop_folded_binary =
  QCheck.Test.make ~count:500 ~name:"folded binary kernels = scalar"
    (QCheck.make QCheck.Gen.(pair (int_range 1 200) int))
    (fun (cols, seed) ->
      let rng = Rng.create seed in
      let n = K.fbwords_for cols in
      let place row =
        let off = Rng.int rng 7 in
        let store =
          Array.init
            (off + n + Rng.int rng 7)
            (fun _ -> Int64.to_int (Rng.next_int64 rng))
        in
        if not (K.pack_binary_at ~cols row ~src:0 ~cs:1 ~width:cols store ~off)
        then
          failwith "binary row did not pack";
        (store, off)
      in
      let mk () = Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) in
      let a = mk () and b = mk () in
      let (qa, qoff), (rb, roff) = (place a, place b) in
      let prefix w =
        let m = min cols (64 * w) in
        scalar_hamming (Array.sub a 0 m) (Array.sub b 0 m)
      in
      let full = scalar_hamming a b in
      let threshold =
        float_of_int (Rng.int rng (cols + 2) - 1) +. (0.5 *. float_of_int (Rng.int rng 2))
      in
      let r =
        K.hamming_binary_flat_threshold qa ~qoff rb ~roff ~iwords:n ~threshold
      in
      let early =
        List.exists
          (fun w -> float_of_int (prefix w) > threshold)
          (List.init (n / 2) Fun.id)
      in
      K.hamming_binary_flat qa ~qoff rb ~roff ~iwords:n = full
      && r land K.th_match <> 0 = (float_of_int full <= threshold)
      && r land K.th_early <> 0 = early)

(* ---- write-time classification ---------------------------------------- *)

let test_classification () =
  let s = S.create ~rows:6 ~cols:8 ~bits:4 in
  check_exact "fresh subarray all generic" (0, 0, 6) (S.class_counts s);
  let row v = Array.make 8 v in
  S.write s [| row 0.; row 1. |];
  check_exact "binary rows" (2, 0, 4) (S.class_counts s);
  S.write s ~row_offset:2 [| row 7. |];
  check_exact "nibble row" (2, 1, 3) (S.class_counts s);
  S.write s ~row_offset:3 [| row 0.5 |];
  check_exact "float row stays generic" (2, 1, 3) (S.class_counts s);
  S.write_range s ~row_offset:4 ~lo:[| row 0. |] ~hi:[| row 3. |];
  check_exact "range row stays generic" (2, 1, 3) (S.class_counts s);
  S.write s ~row_offset:5 ~care:[| Array.make 8 false |] [| row 1. |];
  check_exact "dont-care row stays generic" (2, 1, 3) (S.class_counts s);
  (* reclassification on overwrite *)
  S.write s ~row_offset:2 [| row 1. |];
  check_exact "nibble promoted to binary" (3, 0, 3) (S.class_counts s);
  S.write s [| Array.sub (row 1.) 0 4 |];
  check_exact "partial-width row demoted to generic" (2, 0, 4)
    (S.class_counts s)

(* ---- cap differential on randomized mixed-class contents -------------- *)

(* One subarray per row-class mix, identical contents searched at cap
   [`Binary] (full dispatch) and cap [`Generic] (scalar path): search,
   search_range and search_threshold must agree exactly, for full and
   partial-width queries, on every latch. *)
let mixed_subarray rng ~rows ~cols =
  let s = S.create ~rows ~cols ~bits:4 in
  for r = 0 to rows - 1 do
    match Rng.int rng 5 with
    | 0 ->
        S.write s ~row_offset:r
          [| Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) |]
    | 1 ->
        S.write s ~row_offset:r
          [| Array.init cols (fun _ -> float_of_int (Rng.int rng 16)) |]
    | 2 ->
        S.write s ~row_offset:r
          [| Array.init cols (fun _ -> Rng.gaussian rng) |]
    | 3 ->
        S.write s ~row_offset:r
          ~care:[| Array.init cols (fun _ -> Rng.bool rng 0.7) |]
          [| Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) |]
    | _ ->
        let lo = Array.init cols (fun _ -> float_of_int (Rng.int rng 8)) in
        let hi = Array.map (fun l -> l +. float_of_int (Rng.int rng 8)) lo in
        S.write_range s ~row_offset:r ~lo:[| lo |] ~hi:[| hi |]
  done;
  s

let mixed_queries rng ~n ~cols =
  Array.init n (fun i ->
      let width = if i mod 4 = 3 then 1 + Rng.int rng (cols - 1) else cols in
      match Rng.int rng 3 with
      | 0 -> Array.init width (fun _ -> float_of_int (Rng.int rng 2))
      | 1 -> Array.init width (fun _ -> float_of_int (Rng.int rng 16))
      | _ -> Array.init width (fun _ -> Rng.gaussian rng))

let test_cap_differential () =
  let rng = Rng.create 9001 in
  for trial = 0 to 11 do
    let rng = Rng.split rng trial in
    let rows = 4 + Rng.int rng 28 and cols = 1 + Rng.int rng 90 in
    let s = mixed_subarray rng ~rows ~cols in
    let queries = mixed_queries rng ~n:(2 + Rng.int rng 8) ~cols in
    let row_offset = Rng.int rng rows in
    let win = 1 + Rng.int rng (rows - row_offset) in
    let on_caps f =
      let run cap =
        S.with_kernel_cap s cap (fun () ->
            let r = f () in
            (r, S.read s))
      in
      let want = run `Generic in
      List.iter
        (fun cap ->
          check_exact
            (Printf.sprintf "trial %d cap differential" trial)
            want (run cap))
        [ `Nibble; `Binary ]
    in
    List.iter
      (fun metric ->
        on_caps (fun () ->
            S.search s ~queries ~row_offset ~rows:win ~metric);
        List.iter
          (fun threshold ->
            on_caps (fun () ->
                S.search_threshold s ~queries ~row_offset ~rows:win ~metric
                  ~threshold))
          [ 0.; 2.5; float_of_int (cols / 2); float_of_int cols ])
      [ `Hamming; `Euclidean ];
    on_caps (fun () -> S.search_range s ~queries ~row_offset ~rows:win)
  done

(* Flat-storage coherence across overwrites: the packed row buffers and
   class summary are updated in place on every write, so rewriting rows
   with different classes mid-stream must keep every kernel tier in
   exact agreement with the scalar reference — across jobs values, for
   all three search flavours. *)
let test_rewrite_differential () =
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _pool ->
      let rng = Rng.create (31337 + jobs) in
      for trial = 0 to 7 do
        let rng = Rng.split rng trial in
        let rows = 4 + Rng.int rng 28 and cols = 1 + Rng.int rng 90 in
        let s = mixed_subarray rng ~rows ~cols in
        let queries = mixed_queries rng ~n:(2 + Rng.int rng 8) ~cols in
        let check name f =
          let want = S.with_kernel_cap s `Generic f in
          check_exact (Printf.sprintf "%s jobs %d trial %d" name jobs trial)
            want (f ())
        in
        let sweep () =
          check "search" (fun () ->
              S.search s ~queries ~row_offset:0 ~rows ~metric:`Hamming);
          check "range" (fun () ->
              S.search_range s ~queries ~row_offset:0 ~rows);
          check "threshold" (fun () ->
              S.search_threshold s ~queries ~row_offset:0 ~rows
                ~metric:`Hamming
                ~threshold:(float_of_int (cols / 2)))
        in
        sweep ();
        (* reclassify a handful of rows in place and sweep again *)
        for _ = 0 to 5 do
          let r = Rng.int rng rows in
          S.write s ~row_offset:r
            [|
              (match Rng.int rng 3 with
              | 0 -> Array.init cols (fun _ -> float_of_int (Rng.int rng 2))
              | 1 -> Array.init cols (fun _ -> float_of_int (Rng.int rng 16))
              | _ -> Array.init cols (fun _ -> Rng.gaussian rng));
            |]
        done;
        sweep ()
      done)
    [ 1; 4 ]

(* ---- stats: dispatch counters ------------------------------------------ *)

let binary_fixture ?(cols = 32) () =
  let rows = 64 in
  let rng = Rng.create 4242 in
  let s = S.create ~rows ~cols ~bits:1 in
  for r = 0 to rows - 1 do
    S.write s ~row_offset:r
      [| Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) |]
  done;
  let queries =
    Array.init 16 (fun _ ->
        Array.init cols (fun _ -> float_of_int (Rng.int rng 2)))
  in
  (s, queries, rows)

let counters (st : Camsim.Stats.t) =
  ( st.n_kernel_binary, st.n_kernel_nibble, st.n_kernel_generic,
    st.n_kernel_early_exit )

let test_counters_jobs_invariant () =
  let s, queries, rows = binary_fixture () in
  let run jobs =
    Parallel.run ~jobs @@ fun _pool ->
    let stats = Camsim.Stats.create () in
    let r = S.search ~stats s ~queries ~row_offset:0 ~rows ~metric:`Hamming in
    (r, counters stats)
  in
  let r1, c1 = run 1 and r4, c4 = run 4 in
  check_exact "distance matrix across jobs" r1 r4;
  check_exact "dispatch counters across jobs" c1 c4;
  let b, n, g, e = c1 in
  Alcotest.(check int) "every row binary-dispatched" (16 * rows) b;
  Alcotest.(check int) "no nibble rows" 0 n;
  Alcotest.(check int) "no generic rows" 0 g;
  Alcotest.(check int) "no early exits outside threshold search" 0 e

let test_early_exit_counter () =
  (* multiple packed words per row, so a tight threshold can bail with
     words still unread (a 32-col row is one word — never "early") *)
  let s, queries, rows = binary_fixture ~cols:256 () in
  let run threshold =
    let stats = Camsim.Stats.create () in
    let m =
      S.search_threshold ~stats s ~queries ~row_offset:0 ~rows
        ~metric:`Hamming ~threshold
    in
    (m, counters stats)
  in
  let _, (_, _, _, tight) = run 0. in
  Alcotest.(check bool) "tight threshold exits early" true (tight > 0);
  let _, (_, _, _, loose) = run 1e9 in
  Alcotest.(check int) "unreachable threshold never exits early" 0 loose;
  (* and the early exits never change the published matches *)
  let m_fast, _ = run 3. in
  let m_ref, _ = S.with_kernel_cap s `Generic (fun () -> run 3.) in
  check_exact "threshold matches across caps" m_ref m_fast

(* The whole-window binary search at widths on both sides of one
   logical word, so both the one-word loop (cols <= 64) and the
   general loop run, over a window that crosses a row block: the
   distances must equal the [`Generic] cap's scalar ones, and each cap
   must count every (query, row) pair once, on its own tier. *)
let test_one_word_loop () =
  List.iter
    (fun cols ->
      let rng = Rng.create (700 + cols) in
      let rows = 150 and row_offset = 3 and win = 140 and nq = 5 in
      let bits () = Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) in
      let s = S.create ~rows ~cols ~bits:1 in
      S.write s (Array.init rows (fun _ -> bits ()));
      let queries = Array.init nq (fun _ -> bits ()) in
      let run cap =
        S.with_kernel_cap s cap (fun () ->
            let stats = Camsim.Stats.create () in
            let r =
              S.search ~stats s ~queries ~row_offset ~rows:win ~metric:`Hamming
            in
            (r, counters stats))
      in
      let want, generic = run `Generic and got, binary = run `Binary in
      let what = Printf.sprintf "cols %d" cols in
      check_exact (what ^ " distances") want got;
      let pairs = nq * win in
      check_exact (what ^ " generic-cap counters") (0, 0, pairs, 0) generic;
      check_exact (what ^ " binary-cap counters") (pairs, 0, 0, 0) binary)
    [ 1; 16; 31; 32; 33; 63; 64; 65; 128 ]

(* ---- range matching against an independent oracle --------------------- *)

(* The test's own model of a subarray's cells. Every write programs a
   prefix of its row, so the model replays each write as one. *)
type cell = Value of float | Dont_care | Box of float * float

(* One cell's count, from the definitions alone: a value cell mismatches
   unless equal; a don't-care never does; a range cell is met when
   lo <= q <= hi, bounds inclusive, so an inverted box (lo > hi) is
   violated by every ordinary query. A nan query cell is the one
   exception the device documents: it compares false against both
   bounds, so it violates no range cell (and mismatches every value
   cell). *)
let violation q = function
  | Value v -> if v = q then 0 else 1
  | Dont_care -> 0
  | Box (lo, hi) -> if Float.is_nan q || (lo <= q && q <= hi) then 0 else 1

let oracle_distance model r q =
  let d = ref 0 in
  Array.iteri (fun j v -> d := !d + violation v model.(r).(j)) q;
  float_of_int !d

(* Values that sit on the edges of a compare: both zeros, small
   integers (so value rows pack), infinities and plain floats. *)
let edge_value rng =
  match Rng.int rng 8 with
  | 0 -> 0.
  | 1 -> -0.
  | 2 -> float_of_int (Rng.int rng 2)
  | 3 -> float_of_int (Rng.int rng 16)
  | 4 -> if Rng.bool rng 0.5 then infinity else neg_infinity
  | _ ->
      let half = 0.5 *. float_of_int (Rng.int rng 2) in
      float_of_int (Rng.int rng 7) -. 3. +. half

(* A box: ordinary, degenerate (lo = hi) or inverted (lo > hi). *)
let edge_box rng =
  let lo = edge_value rng in
  match Rng.int rng 4 with
  | 0 -> (lo, lo)
  | 1 -> (lo, lo -. 1. -. float_of_int (Rng.int rng 3))
  | _ -> (lo, lo +. float_of_int (Rng.int rng 4))

(* Program a random prefix write into [s] and replay it in [model]. *)
let write_prefix rng s model r ~width kind =
  let cols = Array.length model.(r) in
  let width = min cols width in
  match kind with
  | `Range ->
      let boxes = Array.init width (fun _ -> edge_box rng) in
      S.write_range s ~row_offset:r
        ~lo:[| Array.map fst boxes |]
        ~hi:[| Array.map snd boxes |];
      Array.iteri (fun j (lo, hi) -> model.(r).(j) <- Box (lo, hi)) boxes
  | `Value ->
      let values = Array.init width (fun _ -> edge_value rng) in
      let care = Array.init width (fun _ -> Rng.bool rng 0.8) in
      S.write s ~row_offset:r ~care:[| care |] [| values |];
      Array.iteri
        (fun j v -> model.(r).(j) <- (if care.(j) then Value v else Dont_care))
        values
  | `Binary ->
      let values = Array.init width (fun _ -> float_of_int (Rng.int rng 2)) in
      S.write s ~row_offset:r [| values |];
      Array.iteri (fun j v -> model.(r).(j) <- Value v) values

(* A query cell: a bound or value of the cell it meets in some row, a
   zero of either sign, nan, or an edge value. *)
let query_cell rng model j =
  let rows = Array.length model in
  match Rng.int rng 6 with
  | 0 | 1 -> (
      match model.(Rng.int rng rows).(j) with
      | Box (lo, hi) -> if Rng.bool rng 0.5 then lo else hi
      | Value v -> v
      | Dont_care -> 0.)
  | 2 -> if Rng.bool rng 0.5 then 0. else -0.
  | 3 -> Float.nan
  | _ -> edge_value rng

(* One random subarray, window and batch, searched at caps [`Binary]
   and [`Generic]: distances, latches and threshold matches equal the
   oracle's, and the dispatch counters count every pair once, all on
   the generic tier for an all-range window or a [`Generic] cap. An
   all-range trial ends every row with a range run of at least [wmin]
   cells and gives the first query at most [wmin] cells, so the
   whole-window range loop runs; wider queries and mixed rows fall
   back. *)
let range_trial seed =
  let rng = Rng.create seed in
  let rows = 1 + Rng.int rng 40 and cols = 1 + Rng.int rng 70 in
  let all_range = Rng.bool rng 0.5 in
  let wmin = 1 + Rng.int rng cols in
  let s = S.create ~rows ~cols ~bits:4 in
  let model = Array.init rows (fun _ -> Array.make cols (Value 0.)) in
  for r = 0 to rows - 1 do
    for _ = 0 to Rng.int rng 3 do
      let kind =
        match Rng.int rng 3 with 0 -> `Range | 1 -> `Value | _ -> `Binary
      in
      write_prefix rng s model r ~width:(1 + Rng.int rng cols) kind
    done;
    if all_range then
      write_prefix rng s model r
        ~width:(wmin + Rng.int rng (cols - wmin + 1))
        `Range
  done;
  let n = 1 + Rng.int rng 12 in
  let queries =
    Array.init n (fun i ->
        let width =
          if all_range && (i = 0 || Rng.bool rng 0.5) then
            1 + Rng.int rng wmin
          else 1 + Rng.int rng cols
        in
        Array.init width (query_cell rng model))
  in
  let row_offset = Rng.int rng rows in
  let win = 1 + Rng.int rng (rows - row_offset) in
  let oracle qs =
    Array.map
      (fun q ->
        Array.init win (fun i -> oracle_distance model (row_offset + i) q))
      qs
  in
  let want = oracle queries in
  let pairs = n * win in
  let check cap =
    S.with_kernel_cap s cap (fun () ->
        let stats = Camsim.Stats.create () in
        let got = S.search_range ~stats s ~queries ~row_offset ~rows:win in
        let ((b, nb, g, e) as c) = counters stats in
        let tiers_ok =
          e = 0
          && b + nb + g = pairs
          && ((not (all_range || cap = `Generic)) || c = (0, 0, pairs, 0))
        in
        (* the batch cut to the first query's width, read in place from
           a flat backing with every cell two slots apart; a shorter
           query's missing cells read nan *)
        let width = Array.length queries.(0) in
        let rs = (2 * width) + 3 in
        let data = Array.make ((n * rs) + 1) Float.nan in
        let at i j = 1 + (i * rs) + (2 * j) in
        Array.iteri
          (fun i q ->
            for j = 0 to min width (Array.length q) - 1 do
              data.(at i j) <- q.(j)
            done)
          queries;
        let view =
          S.search_window s
            (Camsim.Scratch.View
               {
                 data; off = 1; rs; cs = 2; rows = n; cols = width;
                 stamp = Camsim.Scratch.fresh_stamp ();
               })
            ~row_offset ~rows:win ~metric:`Hamming
        in
        let view_ok =
          view
          = oracle
              (Array.init n (fun i ->
                   Array.init width (fun j -> data.(at i j))))
        in
        let threshold = float_of_int (Rng.int rng 3) in
        let th =
          S.search_threshold s ~queries ~row_offset ~rows:win
            ~metric:`Hamming ~threshold
        in
        let matches =
          Array.map
            (Array.map (fun d -> if d <= threshold then 1. else 0.))
            want
        in
        got = want && tiers_ok && view_ok && th = matches
        && S.read s = th
        && (ignore (S.search_range s ~queries ~row_offset ~rows:win);
            S.read s = want))
  in
  check `Binary && check `Generic

let prop_range_oracle ~jobs =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "range match = per-cell oracle (jobs %d)" jobs)
    (QCheck.make QCheck.Gen.int)
    (fun seed -> Parallel.run ~jobs (fun _pool -> range_trial seed))

(* ---- executors: cam interpreter vs flat-ISA VM ------------------------- *)

let test_executors_agree () =
  List.iter
    (fun bits ->
      let data =
        Workloads.Hdc.synthetic ~seed:77 ~dims:256 ~n_classes:6 ~n_queries:8
          ~bits ()
      in
      let c =
        C4cam.Driver.compile
          ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base)
          (Workloads.Kernels.hdc_dot ~q:8 ~dims:256 ~classes:6 ~k:1)
      in
      let a = C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored in
      let b = C4cam.Driver.run_vm c ~queries:data.queries ~stored:data.stored in
      let what s = Printf.sprintf "%d-bit %s" bits s in
      Alcotest.(check Tutil.int_rows_testable)
        (what "indices") a.indices b.indices;
      check_exact (what "values") a.values b.values;
      check_exact (what "latency") a.latency b.latency;
      check_exact (what "energy") a.energy b.energy;
      (* the host cim-level scorer, through the same flat kernels; the
         all-0.5 row never packs and takes the scalar loop *)
      let rows = Array.append data.stored [| Array.make 256 0.5 |] in
      let want =
        Array.map
          (fun q ->
            Array.map (fun r -> float_of_int (scalar_hamming q r)) rows)
          data.queries
      in
      check_exact (what "host hamming scores") want
        (Interp.Ops.scores_of Dialects.Cim.Hamming data.queries rows))
    [ 1; 2; 4 ]

let () =
  Alcotest.run "kernels"
    [
      ( "primitives",
        [
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "packability" `Quick test_packability;
        ] );
      ( "classification",
        [ Alcotest.test_case "row classes" `Quick test_classification ] );
      ( "differential",
        [
          Alcotest.test_case "cap differential (mixed rows)" `Quick
            test_cap_differential;
          Alcotest.test_case "rewrite differential (reclassification)"
            `Quick test_rewrite_differential;
          Alcotest.test_case "executors agree" `Quick test_executors_agree;
        ] );
      ( "stats",
        [
          Alcotest.test_case "jobs-invariant counters" `Quick
            test_counters_jobs_invariant;
          Alcotest.test_case "early-exit counter" `Quick
            test_early_exit_counter;
          Alcotest.test_case "one-word and general loops" `Quick
            test_one_word_loop;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest (prop_packed_hamming ~maxval:2);
          QCheck_alcotest.to_alcotest (prop_packed_hamming ~maxval:16);
          QCheck_alcotest.to_alcotest prop_threshold_kernels;
          QCheck_alcotest.to_alcotest prop_folded_binary;
          QCheck_alcotest.to_alcotest (prop_range_oracle ~jobs:1);
          QCheck_alcotest.to_alcotest (prop_range_oracle ~jobs:4);
        ] );
    ]
