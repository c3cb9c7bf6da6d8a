(* Hierarchy simulator: allocation discipline, stats ledger, functional
   search/read/select. *)

open Camsim

let sim ?(spec = Tutil.spec32) () = Simulator.create spec

let alloc_chain s =
  let bank = Simulator.alloc_bank s ~rows:32 ~cols:32 in
  let mat = Simulator.alloc_mat s bank in
  let arr = Simulator.alloc_array s mat in
  let sub = Simulator.alloc_subarray s arr in
  (bank, mat, arr, sub)

let test_alloc_and_stats () =
  let s = sim () in
  let _ = alloc_chain s in
  let st = Simulator.stats s in
  Alcotest.(check int) "banks" 1 st.n_banks;
  Alcotest.(check int) "mats" 1 st.n_mats;
  Alcotest.(check int) "arrays" 1 st.n_arrays;
  Alcotest.(check int) "subarrays" 1 st.n_subarrays

let test_capacity_limits () =
  let s = sim () in
  let bank = Simulator.alloc_bank s ~rows:32 ~cols:32 in
  (* 4 mats per bank in the default spec *)
  for _ = 1 to 4 do
    ignore (Simulator.alloc_mat s bank)
  done;
  Alcotest.(check bool) "fifth mat rejected" true
    (match Simulator.alloc_mat s bank with
    | _ -> false
    | exception Simulator.Error _ -> true)

let test_max_banks_enforced () =
  let s = sim ~spec:{ Tutil.spec32 with max_banks = Some 1 } () in
  ignore (Simulator.alloc_bank s ~rows:32 ~cols:32);
  Alcotest.(check bool) "second bank rejected" true
    (match Simulator.alloc_bank s ~rows:32 ~cols:32 with
    | _ -> false
    | exception Simulator.Error _ -> true)

let test_geometry_must_match_spec () =
  let s = sim () in
  Alcotest.(check bool) "wrong geometry rejected" true
    (match Simulator.alloc_bank s ~rows:16 ~cols:16 with
    | _ -> false
    | exception Simulator.Error _ -> true)

let test_parent_kind_checked () =
  let s = sim () in
  let bank = Simulator.alloc_bank s ~rows:32 ~cols:32 in
  Alcotest.(check bool) "array from bank rejected" true
    (match Simulator.alloc_array s bank with
    | _ -> false
    | exception Simulator.Error _ -> true)

let test_write_search_read () =
  let s = sim () in
  let _, _, _, sub = alloc_chain s in
  let stored = [| [| 0.; 1.; 0. |]; [| 1.; 1.; 1. |] |] in
  let _ = Simulator.write s sub ~row_offset:0 stored in
  let c =
    Simulator.search s sub
      ~queries:[| [| 0.; 1.; 0. |] |]
      ~row_offset:0 ~rows:2 ~kind:`Best ~metric:`Hamming ()
  in
  Alcotest.(check bool) "search has a cost" true (c.latency > 0.);
  let r = Simulator.read s sub in
  Tutil.check_float "match" 0. r.(0).(0);
  Tutil.check_float "two off" 2. r.(0).(1);
  let st = Simulator.stats s in
  Alcotest.(check int) "one search op" 1 st.n_search_ops;
  Alcotest.(check int) "one query cycle" 1 st.n_query_cycles;
  Alcotest.(check int) "one write" 1 st.n_write_ops;
  Alcotest.(check bool) "energy recorded" true
    (st.e_search > 0. && st.e_write > 0.)

let test_write_ternary () =
  let s = sim () in
  let _, _, _, sub = alloc_chain s in
  let _ =
    Simulator.write s sub ~row_offset:0
      ~care:[| [| true; false |] |]
      [| [| 1.; 0. |] |]
  in
  let _ =
    Simulator.search s sub ~queries:[| [| 1.; 1. |] |] ~row_offset:0 ~rows:1
      ~kind:`Best ~metric:`Hamming ()
  in
  Tutil.check_float "wildcard ignored" 0. (Simulator.read s sub).(0).(0)

let test_select_best () =
  let s = sim () in
  let dist = [| [| 3.; 1.; 2. |]; [| 0.; 5.; 0. |] |] in
  let (values, indices), cost =
    Simulator.select_best s ~dist ~k:2 ~largest:false
  in
  Alcotest.(check Tutil.int_rows_testable) "indices"
    [| [| 1; 2 |]; [| 0; 2 |] |]
    indices;
  Alcotest.(check Tutil.rows_testable) "values"
    [| [| 1.; 2. |]; [| 0.; 0. |] |]
    values;
  Alcotest.(check bool) "select cost" true (cost.latency > 0.);
  let (_, idx_l), _ = Simulator.select_best s ~dist ~k:1 ~largest:true in
  Alcotest.(check Tutil.int_rows_testable) "largest" [| [| 0 |]; [| 1 |] |]
    idx_l

let test_threshold_search () =
  let s = sim () in
  let _, _, _, sub = alloc_chain s in
  let _ =
    Simulator.write s sub ~row_offset:0
      [| [| 0.; 0.; 0. |]; [| 0.; 1.; 1. |]; [| 1.; 1.; 1. |] |]
  in
  let _ =
    Simulator.search s sub ~queries:[| [| 0.; 0.; 0. |] |] ~row_offset:0
      ~rows:3 ~kind:`Threshold ~metric:`Hamming ~threshold:1.5 ()
  in
  Alcotest.(check Tutil.rows_testable) "rows within distance 1.5 match"
    [| [| 1.; 0.; 0. |] |]
    (Simulator.read s sub);
  (* threshold 0 behaves like exact match *)
  let _ =
    Simulator.search s sub ~queries:[| [| 0.; 1.; 1. |] |] ~row_offset:0
      ~rows:3 ~kind:`Threshold ~metric:`Hamming ~threshold:0. ()
  in
  Alcotest.(check Tutil.rows_testable) "exact row flagged"
    [| [| 0.; 1.; 0. |] |]
    (Simulator.read s sub)

let test_range_search_via_simulator () =
  let s = sim () in
  let _, _, _, sub = alloc_chain s in
  (* program an ACAM range row directly through the subarray API *)
  let _ = Simulator.write s sub ~row_offset:0 [| [| 0.; 0. |] |] in
  let _ =
    Simulator.search s sub ~queries:[| [| 0.; 0. |] |] ~row_offset:0 ~rows:1
      ~kind:`Range ~metric:`Hamming ()
  in
  Tutil.check_float "plain values behave as point ranges" 0.
    (Simulator.read s sub).(0).(0)

(* select_best against a sort-prefix oracle: each row's candidates
   sorted by value under [compare] (descending when [largest]), ties on
   the index, cut after [k]. Values come from a small pool with NaN, so
   ties and NaN are common, at k = 1 (the scan) and k > 1 (the
   insertion); every row answers independently. *)
let prop_select_best_sort_prefix =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* k = oneof [ return 1; int_range 1 n ] in
      let* largest = bool in
      let cell =
        oneofl [ 0.; 1.; 2.; -1.; 0.5; Float.nan; Float.infinity; -0. ]
      in
      let* dist = array_size (int_range 0 4) (array_repeat n cell) in
      return (dist, k, largest))
  in
  let print (dist, k, largest) =
    Printf.sprintf "k=%d largest=%b dist=[%s]" k largest
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun r ->
                 String.concat ","
                   (Array.to_list (Array.map string_of_float r)))
               dist)))
  in
  QCheck.Test.make ~count:500 ~name:"select_best = sort prefix (ties, NaN)"
    (QCheck.make ~print gen)
    (fun (dist, k, largest) ->
      let (values, indices), _ =
        Simulator.select_best (sim ()) ~dist ~k ~largest
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun qi row ->
             let order = Array.init (Array.length row) Fun.id in
             Array.stable_sort
               (fun a b ->
                 if largest then compare row.(b) row.(a)
                 else compare row.(a) row.(b))
               order;
             let want = Array.sub order 0 k in
             (* [compare] on the values: NaN = NaN *)
             indices.(qi) = want
             && compare values.(qi) (Array.map (fun i -> row.(i)) want) = 0)
           dist))

let test_select_best_k_too_large () =
  let s = sim () in
  Alcotest.(check bool) "k > n rejected" true
    (match Simulator.select_best s ~dist:[| [| 1. |] |] ~k:2 ~largest:false with
    | _ -> false
    | exception Simulator.Error _ -> true)

let test_query_hint_scales_overhead () =
  let run hint =
    let s = sim () in
    Simulator.set_query_hint s hint;
    let _ = alloc_chain s in
    (Simulator.stats s).e_overhead
  in
  let e1 = run 1 and e10 = run 10 in
  Tutil.check_float ~eps:1e-9 "overhead linear in queries" (10. *. e1) e10

let test_energy_ledger_totals () =
  let s = sim () in
  let _, _, _, sub = alloc_chain s in
  let _ = Simulator.write s sub ~row_offset:0 [| [| 0.; 1. |] |] in
  let _ =
    Simulator.search s sub ~queries:[| [| 0.; 1. |] |] ~row_offset:0 ~rows:1
      ~kind:`Best ~metric:`Hamming ()
  in
  let _ = Simulator.merge s ~elems:10 in
  let _, _ = Simulator.select_best s ~dist:[| [| 1.; 0. |] |] ~k:1 ~largest:false in
  let st = Simulator.stats s in
  Tutil.check_float ~eps:1e-12 "total is the sum of categories"
    (st.e_search +. st.e_write +. st.e_merge +. st.e_select +. st.e_overhead)
    (Stats.total_energy st)

let test_stats_reset_and_print () =
  let s = sim () in
  let _ = alloc_chain s in
  let st = Simulator.stats s in
  Alcotest.(check bool) "to_string mentions banks" true
    (String.length (Stats.to_string st) > 20);
  Stats.reset st;
  Alcotest.(check int) "reset banks" 0 st.n_banks;
  Tutil.check_float "reset energy" 0. (Stats.total_energy st)

let test_trace_records_operations () =
  let trace = Camsim.Trace.create () in
  let s = Simulator.create ~trace Tutil.spec32 in
  let _, _, _, sub = alloc_chain s in
  let _ = Simulator.write s sub ~row_offset:0 [| [| 0.; 1. |] |] in
  let _ =
    Simulator.search s sub ~queries:[| [| 0.; 1. |] |] ~row_offset:0 ~rows:1
      ~kind:`Best ~metric:`Hamming ()
  in
  let events = Camsim.Trace.events trace in
  let count pred = List.length (List.filter pred events) in
  Alcotest.(check int) "4 allocs" 4
    (count (function Camsim.Trace.Alloc _ -> true | _ -> false));
  Alcotest.(check int) "1 write" 1
    (count (function Camsim.Trace.Write _ -> true | _ -> false));
  Alcotest.(check int) "1 search" 1
    (count (function Camsim.Trace.Search _ -> true | _ -> false));
  Alcotest.(check bool) "dump is readable" true
    (String.length (Camsim.Trace.dump trace) > 40)

let test_trace_ring_buffer () =
  let trace = Camsim.Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Camsim.Trace.record trace (Camsim.Trace.Merge { elems = i })
  done;
  Alcotest.(check int) "total counts everything" 5
    (Camsim.Trace.total_recorded trace);
  Alcotest.(check bool) "keeps the last three" true
    (Camsim.Trace.events trace
    = [ Camsim.Trace.Merge { elems = 3 }; Merge { elems = 4 };
        Merge { elems = 5 } ])

let test_defect_injection () =
  (* rate 0: bits are stored faithfully *)
  let run rate =
    let s = Simulator.create ~defect_rate:rate ~defect_seed:7 Tutil.spec32 in
    let _, _, _, sub = alloc_chain s in
    let zeros = [| Array.make 32 0. |] in
    let _ = Simulator.write s sub ~row_offset:0 zeros in
    let _ =
      Simulator.search s sub ~queries:zeros ~row_offset:0 ~rows:1
        ~kind:`Best ~metric:`Hamming ()
    in
    (Simulator.read s sub).(0).(0)
  in
  Tutil.check_float "no defects, exact match" 0. (run 0.);
  let flipped = run 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "heavy defects flip cells (%g mismatches)" flipped)
    true
    (flipped > 5. && flipped < 28.);
  (* determinism: same seed, same corruption *)
  Tutil.check_float "deterministic given the seed" flipped (run 0.5);
  Alcotest.(check bool) "invalid rate rejected" true
    (match Simulator.create ~defect_rate:1.5 Tutil.spec32 with
    | _ -> false
    | exception Simulator.Error _ -> true)

let test_invalid_spec_rejected () =
  Alcotest.(check bool) "zero rows rejected" true
    (match Simulator.create { Tutil.spec32 with rows = 0 } with
    | _ -> false
    | exception Simulator.Error _ -> true)

(* Serve replay with dirty marks: a window over a tracked store that no
   mark meets is skipped without reading a cell (so an unreported change
   stays invisible — the contract a store owner signs with [track]);
   a marked window is compared and only its changed rows are charged;
   marks taken before the seal are dropped, and marks clear once a
   replay ends. Untracked data is compared on every replay. *)
let test_dirty_marks () =
  let s = sim () in
  Simulator.start_recording s;
  let rows = 8 and cols = 4 in
  let store = Array.init (rows * cols) (fun i -> float_of_int (i mod 2)) in
  Simulator.track s store;
  Simulator.mark s store ~off:0 ~len:cols;
  let run () =
    let _, _, _, sub = alloc_chain s in
    (Simulator.write_view s sub ~row_offset:0 ~rows ~cols store ~off:0
       ~rs:cols ~cs:1)
      .Energy_model.energy
  in
  let replay () =
    Simulator.rewind s;
    run ()
  in
  ignore (run ());
  Simulator.seal_recording s;
  let writes () = (Simulator.stats s).n_write_ops in
  let w0 = writes () in
  Tutil.check_float ~eps:0. "pre-seal mark dropped: clean replay" 0.
    (replay ());
  (* an unreported change is not seen: the clean window reads no cell *)
  store.(0) <- 7.;
  Tutil.check_float ~eps:0. "unmarked change skipped" 0. (replay ());
  Alcotest.(check int) "no write op" w0 (writes ());
  (* marking rows 0 and 5 (row 5 unchanged) rewrites row 0 only *)
  Simulator.mark s store ~off:0 ~len:1;
  Simulator.mark s store ~off:(5 * cols) ~len:cols;
  Alcotest.(check bool) "marked change charged" true (replay () > 0.);
  Alcotest.(check int) "one run rewritten" (w0 + 1) (writes ());
  Tutil.check_float ~eps:0. "marks cleared after the replay" 0. (replay ());
  (* a fresh copy of the same rows is untracked: compared, unchanged *)
  let s2 = sim () in
  Simulator.start_recording s2;
  let write2 data =
    let _, _, _, sub = alloc_chain s2 in
    Simulator.write_view s2 sub ~row_offset:0 ~rows ~cols data ~off:0
      ~rs:cols ~cs:1
  in
  ignore (write2 (Array.copy store));
  Simulator.seal_recording s2;
  Simulator.rewind s2;
  let changed = Array.copy store in
  changed.(3 * cols) <- 5.;
  Alcotest.(check bool) "untracked change charged" true
    ((write2 changed).Energy_model.energy > 0.)

(* A tracked window that a later write of the same execution
   overwrites: sealing drops its origin, so every replay rewrites it
   before the search between the two writes, which sees the cells it
   saw on the recorded run. *)
let test_overwritten_window_replays () =
  let s = sim () in
  Simulator.start_recording s;
  let rows = 4 and cols = 4 in
  let ones = Array.make (rows * cols) 1. in
  Simulator.track s ones;
  let run () =
    let _, _, _, sub = alloc_chain s in
    ignore
      (Simulator.write_view s sub ~row_offset:0 ~rows ~cols ones ~off:0
         ~rs:cols ~cs:1);
    ignore
      (Simulator.search s sub ~queries:[| Array.make cols 1. |]
         ~row_offset:0 ~rows ~kind:`Best ~metric:`Hamming ());
    let d = Array.map Array.copy (Simulator.read s sub) in
    ignore
      (Simulator.write s sub ~row_offset:0 (Array.make_matrix rows cols 0.));
    d
  in
  let ledger () =
    let st = Simulator.stats s in
    (st.n_write_ops, st.e_write)
  in
  let recorded = run () in
  let ops, energy = ledger () in
  Simulator.seal_recording s;
  for _ = 1 to 2 do
    Simulator.rewind s;
    let ops0, e0 = ledger () in
    let d = run () in
    let ops1, e1 = ledger () in
    Alcotest.(check Tutil.rows_testable) "replayed distances" recorded d;
    Alcotest.(check int) "replayed write ops" ops (ops1 - ops0);
    Tutil.check_float ~eps:1e-12 "replayed write energy" energy (e1 -. e0)
  done

(* The write log keeps no copy of a written row: a sealed simulator
   holding 64 full 64x64 binary tiles costs what its cells cost. *)
let test_bytes_per_cell () =
  let side = 64 and tiles = 64 in
  let s = Simulator.create (Archspec.Spec.square side Archspec.Spec.Base) in
  let st = Random.State.make [| 5 |] in
  let buf =
    Array.init (tiles * side * side) (fun _ ->
        if Random.State.bool st then 1. else 0.)
  in
  let run () =
    let bank = Simulator.alloc_bank s ~rows:side ~cols:side in
    let tile = ref 0 in
    for _ = 1 to 2 do
      let mat = Simulator.alloc_mat s bank in
      for _ = 1 to 4 do
        let arr = Simulator.alloc_array s mat in
        for _ = 1 to 8 do
          let sub = Simulator.alloc_subarray s arr in
          ignore
            (Simulator.write_view s sub ~row_offset:0 ~rows:side ~cols:side buf
               ~off:(!tile * side * side) ~rs:side ~cs:1);
          incr tile
        done
      done
    done;
    Alcotest.(check int) "tiles written" tiles !tile
  in
  Simulator.start_recording s;
  run ();
  Simulator.seal_recording s;
  Simulator.rewind s;
  let w0 = (Simulator.stats s).n_write_ops in
  run ();
  Alcotest.(check int) "the replay rewrites nothing" w0
    (Simulator.stats s).n_write_ops;
  let words =
    Obj.reachable_words (Obj.repr s) - Obj.reachable_words (Obj.repr buf)
  in
  let per_cell =
    float_of_int (words * (Sys.word_size / 8))
    /. float_of_int (tiles * side * side)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f B per stored cell, at most 12" per_cell)
    true (per_cell <= 12.)

(* Replayed writes against a cell model kept by the test: every write
   kind, overlapping writes to the same rows, and replays that flip a
   care bit, change a value, a range bound or the payload under a
   don't-care, or write the same rows again. Each replayed write must
   charge one write op and [Energy_model.write] per maximal run of rows
   in which a modelled cell changes, and nothing else. *)
type wkind = Plain | Ternary | Range | View | Range_view

type wr = {
  kind : wkind;
  sub : int;
  off : int;
  cols : int;
  lo : float array array;
  hi : float array array;
  care : bool array array;
  col_major : bool;  (* view layout: column-major, else row-major *)
  pad : int;  (* view offset into its backing store *)
}

type cell = V of float | Dc | R of float * float

let side = 8
let values = [| 0.; 1.; 2.; 3.; Float.nan |]

let gen_writes st =
  let value () = values.(Random.State.int st (Array.length values)) in
  let prev = ref None in
  List.init
    (1 + Random.State.int st 6)
    (fun _ ->
      let sub, off, rows =
        match !prev with
        | Some p when Random.State.int st 3 = 0 -> p
        | _ ->
            let off = Random.State.int st side in
            (Random.State.int st 2, off, 1 + Random.State.int st (side - off))
      in
      prev := Some (sub, off, rows);
      let cols = 1 + Random.State.int st side in
      let lo = Array.init rows (fun _ -> Array.init cols (fun _ -> value ())) in
      {
        kind =
          [| Plain; Ternary; Range; View; Range_view |].(Random.State.int st 5);
        sub;
        off;
        cols;
        lo;
        hi = Array.map (Array.map (fun v -> v +. 1.)) lo;
        care =
          Array.init rows (fun _ ->
              Array.init cols (fun _ -> Random.State.int st 3 > 0));
        col_major = Random.State.bool st;
        pad = Random.State.int st 3;
      })

(* One replay's change to a write, drawn from [st]. *)
let mutate st w =
  let lo = Array.map Array.copy w.lo
  and hi = Array.map Array.copy w.hi
  and care = Array.map Array.copy w.care in
  let i = Random.State.int st (Array.length lo)
  and j = Random.State.int st w.cols in
  (match Random.State.int st 5 with
  | 0 -> () (* the same rows again *)
  | 1 -> lo.(i).(j) <- values.(Random.State.int st (Array.length values))
  | 2 -> care.(i).(j) <- not care.(i).(j)
  | 3 ->
      (* the payload under a don't-care, when the row has one *)
      Array.iteri (fun j c -> if not c then lo.(i).(j) <- lo.(i).(j) +. 5.)
        care.(i)
  | _ -> hi.(i).(j) <- hi.(i).(j) +. 1.);
  { w with lo; hi; care }

let perform s subs w =
  let id = subs.(w.sub) and row_offset = w.off and rows = Array.length w.lo in
  let rs, cs = if w.col_major then (1, rows) else (w.cols, 1) in
  let flat plane =
    let data = Array.make (w.pad + (rows * w.cols)) (-1.) in
    Array.iteri
      (fun i r -> Array.iteri (fun j v -> data.(w.pad + (i * rs) + (j * cs)) <- v) r)
      plane;
    data
  in
  match w.kind with
  | Plain -> Simulator.write s id ~row_offset w.lo
  | Ternary -> Simulator.write s id ~row_offset ~care:w.care w.lo
  | Range -> Simulator.write_range s id ~row_offset ~lo:w.lo ~hi:w.hi
  | View ->
      Simulator.write_view s id ~row_offset ~rows ~cols:w.cols (flat w.lo)
        ~off:w.pad ~rs ~cs
  | Range_view ->
      Simulator.write_range_view s id ~row_offset ~rows ~cols:w.cols
        ~lo:(flat w.lo) ~hi:(flat w.hi) ~off:w.pad ~rs ~cs

let incoming w i j =
  match w.kind with
  | Range | Range_view -> R (w.lo.(i).(j), w.hi.(i).(j))
  | Ternary when not w.care.(i).(j) -> Dc
  | Plain | Ternary | View -> V w.lo.(i).(j)

let same a b =
  match (a, b) with
  | V x, V y -> Float.compare x y = 0
  | Dc, Dc -> true
  | R (a, b), R (c, d) -> Float.compare a c = 0 && Float.compare b d = 0
  | _ -> false

(* Expected (write ops, e_write) after [w] replays on [model], which it
   updates; [e] is the e_write before it. *)
let model_write spec model w (ops, e) =
  let m = model.(w.sub) and rows = Array.length w.lo in
  let changed i =
    let d = ref false in
    for j = 0 to w.cols - 1 do
      if not (same m.(w.off + i).(j) (incoming w i j)) then d := true
    done;
    !d
  in
  let ops = ref ops and e = ref e and i = ref 0 in
  while !i < rows do
    if changed !i then begin
      let j = ref (!i + 1) in
      while !j < rows && changed !j do incr j done;
      let c =
        Energy_model.write Tech.fefet_45nm ~bits:spec.Archspec.Spec.bits
          ~cols:spec.cols ~rows:(!j - !i)
      in
      let c =
        match w.kind with
        | Range | Range_view -> Energy_model.add c c
        | Plain | Ternary | View -> c
      in
      incr ops;
      e := !e +. c.energy;
      i := !j
    end
    else incr i
  done;
  for i = 0 to rows - 1 do
    for j = 0 to w.cols - 1 do
      m.(w.off + i).(j) <- incoming w i j
    done
  done;
  (!ops, !e)

let prop_replay_vs_cell_model =
  let spec = Archspec.Spec.square side Archspec.Spec.Base in
  let print (ws, seed) =
    Printf.sprintf "seed %d, %d writes: %s" seed (List.length ws)
      (String.concat "; "
         (List.map
            (fun w ->
              Printf.sprintf "sub %d rows %d+%d cols %d" w.sub w.off
                (Array.length w.lo) w.cols)
            ws))
  in
  let gen st = (gen_writes st, Random.State.bits st) in
  QCheck.Test.make ~count:300 ~name:"replay write ledger vs cell model"
    (QCheck.make ~print gen)
    (fun (ws, seed) ->
      let st = Random.State.make [| seed |] in
      let s = Simulator.create spec in
      let model =
        Array.init 2 (fun _ -> Array.init side (fun _ -> Array.make side (V 0.)))
      in
      let run ws =
        let bank = Simulator.alloc_bank s ~rows:side ~cols:side in
        let arr = Simulator.alloc_array s (Simulator.alloc_mat s bank) in
        let subs = Array.init 2 (fun _ -> Simulator.alloc_subarray s arr) in
        List.iter (fun w -> ignore (perform s subs w)) ws
      in
      Simulator.start_recording s;
      run ws;
      Simulator.seal_recording s;
      ignore (List.fold_left (fun acc w -> model_write spec model w acc) (0, 0.) ws);
      let ok = ref true and ws = ref ws in
      for _ = 1 to 3 do
        ws := List.map (mutate st) !ws;
        let stats = Simulator.stats s in
        let want =
          List.fold_left
            (fun acc w -> model_write spec model w acc)
            (stats.n_write_ops, stats.e_write) !ws
        in
        Simulator.rewind s;
        run !ws;
        if (stats.n_write_ops, stats.e_write) <> want then ok := false
      done;
      !ok)

(* ---- query windows read in place ---------------------------------- *)

(* One random case: a 16x16 subarray with mixed binary, nibble, float
   and don't-care rows (range rows for [`Range]), and a query window
   with random offset, row and cell strides (cell stride up to 3) and
   width (partial widths included) over a backing store of binary,
   nibble or float cells. *)
type window_case = {
  wc_kind : [ `Best | `Threshold | `Range ];
  wc_metric : [ `Hamming | `Euclidean ];
  wc_q : int;
  wc_cols : int;
  wc_off : int;
  wc_rs : int;
  wc_cs : int;
  wc_row_offset : int;
  wc_rows : int;
  wc_threshold : float;
  wc_seed : int;
}

let wside = 16

let gen_window_case st =
  let int n = Random.State.int st n in
  let wc_cols = if int 2 = 0 then wside else 1 + int wside in
  let wc_cs = 1 + int 3 in
  let wc_row_offset = int wside in
  {
    wc_kind = [| `Best; `Threshold; `Range |].(int 3);
    wc_metric = (if int 2 = 0 then `Hamming else `Euclidean);
    wc_q = 1 + int 5;
    wc_cols;
    wc_off = int 6;
    (* in a third of the windows consecutive queries share cells *)
    wc_rs =
      (if int 3 = 0 then int ((wc_cols * wc_cs) + 1)
       else (wc_cols * wc_cs) + int 4);
    wc_cs;
    wc_row_offset;
    wc_rows = 1 + int (wside - wc_row_offset);
    wc_threshold = float_of_int (int (wc_cols + 1));
    wc_seed = Random.State.bits st;
  }

let print_window_case c =
  Printf.sprintf
    "%s %s q=%d cols=%d off=%d rs=%d cs=%d rows %d+%d th=%g seed=%d"
    (match c.wc_kind with
    | `Best -> "best"
    | `Threshold -> "threshold"
    | `Range -> "range")
    (match c.wc_metric with `Hamming -> "hamming" | `Euclidean -> "euclidean")
    c.wc_q c.wc_cols c.wc_off c.wc_rs c.wc_cs c.wc_row_offset c.wc_rows
    c.wc_threshold c.wc_seed

(* [search_view] over a window and [search] over the rows extracted from
   it agree on the latched result, every ledger counter (tier counts
   included) and the cost, on two simulators holding the same cells. *)
let prop_search_view_matches_rows =
  QCheck.Test.make ~count:300 ~name:"search_view = search over window rows"
    (QCheck.make ~print:print_window_case gen_window_case)
    (fun c ->
      let st = Random.State.make [| c.wc_seed |] in
      let int n = Random.State.int st n in
      let cell cls =
        match cls with
        | 0 -> float_of_int (int 2)
        | 1 -> float_of_int (int 16)
        | _ -> float_of_int (int 8) /. 4.
      in
      let spec = Archspec.Spec.square wside Archspec.Spec.Base in
      let stored =
        Array.init wside (fun _ ->
            let cls = int 3 in
            Array.init wside (fun _ -> cell cls))
      in
      let care =
        Array.init wside (fun _ ->
            let ternary = int 4 = 0 in
            Array.init wside (fun _ -> not (ternary && int 3 = 0)))
      in
      let hi =
        Array.map (Array.map (fun v -> v +. float_of_int (int 3))) stored
      in
      let device () =
        let s = Simulator.create spec in
        let bank = Simulator.alloc_bank s ~rows:wside ~cols:wside in
        let sub =
          Simulator.alloc_subarray s
            (Simulator.alloc_array s (Simulator.alloc_mat s bank))
        in
        ignore
          (match c.wc_kind with
          | `Range -> Simulator.write_range s sub ~row_offset:0 ~lo:stored ~hi
          | `Best | `Threshold ->
              Simulator.write s sub ~row_offset:0 ~care stored);
        (s, sub)
      in
      let len =
        c.wc_off + ((c.wc_q - 1) * c.wc_rs) + ((c.wc_cols - 1) * c.wc_cs) + 1
        + int 3
      in
      let cls = int 3 in
      let data = Array.init len (fun _ -> cell cls) in
      let rows =
        Array.init c.wc_q (fun i ->
            Array.init c.wc_cols (fun j ->
                data.(c.wc_off + (i * c.wc_rs) + (j * c.wc_cs))))
      in
      let sv, subv = device () and sr, subr = device () in
      let kind = (c.wc_kind :> [ `Exact | `Best | `Threshold | `Range ]) in
      let cv =
        Simulator.search_view sv subv ~row_offset:c.wc_row_offset
          ~rows:c.wc_rows ~kind ~metric:c.wc_metric ~batch_extra:false
          ~threshold:c.wc_threshold ~q:c.wc_q ~cols:c.wc_cols data
          ~off:c.wc_off ~rs:c.wc_rs ~cs:c.wc_cs
          ~stamp:(Scratch.fresh_stamp ())
      in
      let cr =
        Simulator.search sr subr ~queries:rows ~row_offset:c.wc_row_offset
          ~rows:c.wc_rows ~kind ~metric:c.wc_metric
          ~threshold:c.wc_threshold ()
      in
      cv = cr
      && Simulator.read sv subv = Simulator.read sr subr
      && Simulator.stats sv = Simulator.stats sr)

let () =
  Alcotest.run "simulator"
    [
      ( "allocation",
        [
          Alcotest.test_case "chain and stats" `Quick test_alloc_and_stats;
          Alcotest.test_case "capacity limits" `Quick test_capacity_limits;
          Alcotest.test_case "max banks" `Quick test_max_banks_enforced;
          Alcotest.test_case "geometry check" `Quick
            test_geometry_must_match_spec;
          Alcotest.test_case "parent kinds" `Quick test_parent_kind_checked;
          Alcotest.test_case "invalid spec" `Quick test_invalid_spec_rejected;
        ] );
      ( "operations",
        [
          Alcotest.test_case "write/search/read" `Quick test_write_search_read;
          Alcotest.test_case "ternary write" `Quick test_write_ternary;
          Alcotest.test_case "select_best" `Quick test_select_best;
          Alcotest.test_case "threshold search" `Quick test_threshold_search;
          Alcotest.test_case "range kind" `Quick
            test_range_search_via_simulator;
          Alcotest.test_case "select k too large" `Quick
            test_select_best_k_too_large;
          QCheck_alcotest.to_alcotest prop_search_view_matches_rows;
          QCheck_alcotest.to_alcotest prop_select_best_sort_prefix;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "query hint" `Quick
            test_query_hint_scales_overhead;
          Alcotest.test_case "totals" `Quick test_energy_ledger_totals;
          Alcotest.test_case "reset and print" `Quick
            test_stats_reset_and_print;
        ] );
      ( "trace & defects",
        [
          Alcotest.test_case "trace records" `Quick
            test_trace_records_operations;
          Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer;
          Alcotest.test_case "defect injection" `Quick test_defect_injection;
        ] );
      ( "serve replay",
        [
          Alcotest.test_case "dirty marks" `Quick test_dirty_marks;
          Alcotest.test_case "overwritten tracked window" `Quick
            test_overwritten_window_replays;
          QCheck_alcotest.to_alcotest prop_replay_vs_cell_model;
          Alcotest.test_case "sealed simulator bytes per cell" `Quick
            test_bytes_per_cell;
        ] );
    ]
