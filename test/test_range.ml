(* ACAM range analytics: the device path ([cam.write_range] + [`Range]
   search through C4cam.Acam) differentially tested against the host
   oracle across jobs values, plus the serve-mode record/replay
   semantics of range writes. *)

open Workloads

let check_matches msg expected got =
  Alcotest.(check (array int)) msg expected got

(* ---- oracle / generator invariants ------------------------------------- *)

let test_oracle_basics () =
  let lo = [| [| 0.2; 0.2 |]; [| 0.1; 0.1 |] |] in
  let hi = [| [| 0.4; 0.4 |]; [| 0.9; 0.9 |] |] in
  (* inside both boxes: the lowest row wins *)
  Alcotest.(check int) "lowest containing row" 0
    (Range_filter.oracle ~lo ~hi [| 0.3; 0.3 |]);
  (* bounds are inclusive on both ends *)
  Alcotest.(check int) "lo bound inclusive" 0
    (Range_filter.oracle ~lo ~hi [| 0.2; 0.2 |]);
  Alcotest.(check int) "hi bound inclusive" 0
    (Range_filter.oracle ~lo ~hi [| 0.4; 0.4 |]);
  (* inside only the second box *)
  Alcotest.(check int) "second box" 1
    (Range_filter.oracle ~lo ~hi [| 0.8; 0.8 |]);
  (* outside every box *)
  Alcotest.(check int) "anomaly" (-1)
    (Range_filter.oracle ~lo ~hi [| 0.95; 0.05 |])

let test_generate_invariants () =
  let w = Range_filter.generate ~seed:3 ~boxes:12 ~dims:6 ~n_queries:50 () in
  Alcotest.(check int) "boxes" 12 (Array.length w.lo);
  Alcotest.(check int) "queries" 50 (Array.length w.queries);
  Array.iteri
    (fun i q ->
      Alcotest.(check int) "expected = oracle" w.expected.(i)
        (Range_filter.oracle ~lo:w.lo ~hi:w.hi q);
      Array.iter
        (fun v ->
          Alcotest.(check bool) "query in unit cube" true
            (v >= 0. && v <= 1.))
        q)
    w.queries;
  Array.iteri
    (fun r lo_r ->
      Array.iteri
        (fun c l ->
          Alcotest.(check bool) "lo <= hi" true (l <= w.hi.(r).(c)))
        lo_r)
    w.lo;
  let w' = Range_filter.generate ~seed:3 ~boxes:12 ~dims:6 ~n_queries:50 () in
  Alcotest.(check bool) "deterministic in seed" true (w = w');
  let anomalies =
    Array.fold_left (fun n e -> if e < 0 then n + 1 else n) 0 w.expected
  in
  Alcotest.(check bool) "some matches and some anomalies" true
    (anomalies > 0 && anomalies < Array.length w.expected)

(* ---- differential: device vs oracle ------------------------------------ *)

let run_device ~jobs (w : Range_filter.t) =
  let boxes = Array.length w.lo in
  let dims = Array.length w.lo.(0) in
  let spec = C4cam.Acam.fit_spec ~boxes ~dims () in
  let compiled =
    C4cam.Acam.compile ~spec ~q:(Array.length w.queries) ~boxes ~dims
  in
  Parallel.run ~jobs (fun _pool ->
      C4cam.Acam.run compiled ~lo:w.lo ~hi:w.hi ~queries:w.queries)

let test_differential () =
  (* Randomized over seeds; every jobs leg must equal the host
     oracle exactly, and all legs must agree bit-for-bit on cost. *)
  List.iter
    (fun seed ->
      let w =
        Range_filter.generate ~seed ~boxes:24 ~dims:8 ~n_queries:64 ()
      in
      let legs =
        List.map (fun jobs -> run_device ~jobs w) [ 1; 4 ]
      in
      let base = List.hd legs in
      List.iter
        (fun (r : C4cam.Acam.result) ->
          check_matches
            (Printf.sprintf "seed %d: device = oracle" seed)
            w.expected r.matches;
          Alcotest.(check (float 0.)) "latency identical across legs"
            base.C4cam.Acam.latency r.latency;
          Alcotest.(check (float 0.)) "energy identical across legs"
            base.C4cam.Acam.energy r.energy)
        legs)
    [ 1; 5; 11; 23 ]

let test_accuracy_helper () =
  let w = Range_filter.generate ~seed:9 ~boxes:16 ~dims:4 ~n_queries:40 () in
  let r = run_device ~jobs:1 w in
  Alcotest.(check (float 0.)) "device accuracy 1.0" 1.0
    (Range_filter.accuracy ~expected:w.expected r.C4cam.Acam.matches)

let test_geometry_errors () =
  let w = Range_filter.generate ~seed:2 ~boxes:8 ~dims:4 ~n_queries:4 () in
  let spec = C4cam.Acam.fit_spec ~boxes:8 ~dims:4 () in
  Alcotest.check_raises "too many boxes"
    (C4cam.Acam.Range_error
       "box table of 64 rows exceeds the subarray's 32")
    (fun () ->
      ignore (C4cam.Acam.compile ~spec ~q:4 ~boxes:64 ~dims:4));
  let compiled = C4cam.Acam.compile ~spec ~q:4 ~boxes:8 ~dims:4 in
  Alcotest.check_raises "query arity"
    (C4cam.Acam.Range_error "expected 4 query rows, got 2")
    (fun () ->
      ignore
        (C4cam.Acam.run compiled ~lo:w.lo ~hi:w.hi
           ~queries:(Array.sub w.queries 0 2)))

(* ---- serve-mode record/replay of range writes --------------------------- *)

let range_device () =
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  let sim = Camsim.Simulator.create spec in
  (sim, spec)

let build_and_search sim ~lo ~hi ~queries =
  let bank = Camsim.Simulator.alloc_bank sim ~rows:32 ~cols:32 in
  let mat = Camsim.Simulator.alloc_mat sim bank in
  let arr = Camsim.Simulator.alloc_array sim mat in
  let sub = Camsim.Simulator.alloc_subarray sim arr in
  ignore (Camsim.Simulator.write_range sim sub ~row_offset:0 ~lo ~hi);
  ignore
    (Camsim.Simulator.search sim sub ~queries ~row_offset:0
       ~rows:(Array.length lo) ~kind:`Range ~metric:`Hamming ());
  Camsim.Simulator.read sim sub

let test_replay_write_range () =
  let w = Range_filter.generate ~seed:4 ~boxes:6 ~dims:5 ~n_queries:8 () in
  let sim, _spec = range_device () in
  Camsim.Simulator.start_recording sim;
  let first = build_and_search sim ~lo:w.lo ~hi:w.hi ~queries:w.queries in
  Camsim.Simulator.seal_recording sim;
  let stats = Camsim.Simulator.stats sim in
  let e_write_0 = stats.Camsim.Stats.e_write in
  let writes_0 = stats.Camsim.Stats.n_write_ops in
  (* Replay with unchanged bounds: the stored box table is free. *)
  Camsim.Simulator.rewind sim;
  let again = build_and_search sim ~lo:w.lo ~hi:w.hi ~queries:w.queries in
  Alcotest.(check bool) "replay results identical" true (first = again);
  Alcotest.(check (float 0.)) "unchanged bounds cost no write energy"
    e_write_0 stats.Camsim.Stats.e_write;
  Alcotest.(check int) "no write op charged" writes_0
    stats.Camsim.Stats.n_write_ops;
  (* Mutate one box: exactly that row run is reprogrammed and charged. *)
  let lo' = Array.map Array.copy w.lo and hi' = Array.map Array.copy w.hi in
  lo'.(2) <- Array.map (fun v -> v /. 2.) lo'.(2);
  Camsim.Simulator.rewind sim;
  let changed = build_and_search sim ~lo:lo' ~hi:hi' ~queries:w.queries in
  Alcotest.(check bool) "changed bounds recharged" true
    (stats.Camsim.Stats.e_write > e_write_0);
  Alcotest.(check bool) "write op counted" true
    (stats.Camsim.Stats.n_write_ops > writes_0);
  (* And the replayed search reflects the new bounds. *)
  let expect =
    Array.map
      (fun q -> Range_filter.oracle ~lo:lo' ~hi:hi' q)
      w.queries
  in
  let got =
    Array.map
      (fun (row : float array) ->
        let best = ref (-1) in
        Array.iteri
          (fun r v -> if v = 0. && !best < 0 then best := r)
          row;
        !best)
      changed
  in
  check_matches "replayed search sees new bounds" expect got

let test_range_write_double_charge () =
  (* A range write programs two bound planes, so it costs exactly twice
     the ternary write of the same geometry. *)
  let w = Range_filter.generate ~seed:6 ~boxes:4 ~dims:6 ~n_queries:1 () in
  let sim, _ = range_device () in
  let bank = Camsim.Simulator.alloc_bank sim ~rows:32 ~cols:32 in
  let mat = Camsim.Simulator.alloc_mat sim bank in
  let arr = Camsim.Simulator.alloc_array sim mat in
  let sub = Camsim.Simulator.alloc_subarray sim arr in
  let c_range =
    Camsim.Simulator.write_range sim sub ~row_offset:0 ~lo:w.lo ~hi:w.hi
  in
  let sim2, _ = range_device () in
  let bank2 = Camsim.Simulator.alloc_bank sim2 ~rows:32 ~cols:32 in
  let mat2 = Camsim.Simulator.alloc_mat sim2 bank2 in
  let arr2 = Camsim.Simulator.alloc_array sim2 mat2 in
  let sub2 = Camsim.Simulator.alloc_subarray sim2 arr2 in
  let c_plain = Camsim.Simulator.write sim2 sub2 ~row_offset:0 w.lo in
  Alcotest.(check (float 1e-12)) "double the plain write energy"
    (2. *. c_plain.Camsim.Energy_model.energy)
    c_range.Camsim.Energy_model.energy

(* [Acam.run]'s simulated cost in closed form: four allocations (bank,
   mat and array each charge their per-query overhead, at no latency),
   one double-charged [write_range] of every box, one [`Range] search
   of the q queries over the boxes, a read (free) and a k=1 select. The
   interpreter sums the latencies of sequential ops; energy is the sum
   of every charge. Each op is priced from the Energy_model primitives. *)
let prop_acam_cost_closed_form =
  QCheck.Test.make ~count:50 ~name:"acam one-shot cost in closed form"
    QCheck.(triple (int_range 1 16) (int_range 1 64) (int_range 1 40))
    (fun (q, boxes, dims) ->
      let module E = Camsim.Energy_model in
      let spec = C4cam.Acam.fit_spec ~boxes ~dims () in
      let w =
        Range_filter.generate ~seed:(q + boxes + dims) ~boxes ~dims
          ~n_queries:q ()
      in
      let r =
        C4cam.Acam.run (C4cam.Acam.compile ~spec ~q ~boxes ~dims) ~lo:w.lo
          ~hi:w.hi ~queries:w.queries
      in
      let tech = Camsim.Tech.fefet_45nm
      and bits = spec.Archspec.Spec.bits
      and cols = spec.Archspec.Spec.cols in
      let overhead level = E.level_overhead tech ~level ~queries:q in
      let write = E.write tech ~bits ~cols ~rows:boxes in
      let write_range = E.add write write in
      let search =
        E.search tech ~bits ~cols ~active_rows:boxes
          ~physical_rows:spec.Archspec.Spec.rows ~kind:`Range ~queries:q
          ~batch_extra:false ()
      in
      let select = E.select tech ~elems_per_query:boxes ~k:1 ~queries:q in
      let latency =
        write_range.E.latency +. search.E.latency +. select.E.latency
      in
      let energy =
        List.fold_left ( +. ) 0.
          (List.map
             (fun (c : E.cost) -> c.energy)
             [ overhead `Bank; overhead `Mat; overhead `Array; write_range;
               search; select ])
      in
      let close want got =
        Float.abs (want -. got) <= 1e-12 *. Float.abs want
      in
      close latency r.latency && close energy r.energy)

(* A bad row for a table other than the stored one names the call and
   the table, not update_stored. *)
let test_update_table_errors () =
  let w = Range_filter.generate ~seed:4 ~boxes:12 ~dims:6 ~n_queries:8 () in
  let compiled =
    C4cam.Acam.compile
      ~spec:(C4cam.Acam.fit_spec ~boxes:12 ~dims:6 ())
      ~q:8 ~boxes:12 ~dims:6
  in
  let session = Serve.Session.of_acam compiled ~lo:w.lo ~hi:w.hi in
  let message row values =
    match Serve.Session.update_table session ~table:1 ~row values with
    | () -> Alcotest.fail "expected Serve_error"
    | exception Serve.Session.Serve_error e -> e
  in
  Alcotest.(check string) "row out of bounds"
    "update_table: table 1 row 12 out of bounds (it has 12 rows)"
    (message 12 (Array.make 6 0.5));
  Alcotest.(check string) "non-finite row"
    "update_table: table 1 expected 6 finite values"
    (message 0 (Array.make 6 Float.nan))

(* ---- the serving store -------------------------------------------------- *)

let test_store_amortizes_writes () =
  let w = Range_filter.generate ~seed:8 ~boxes:12 ~dims:6 ~n_queries:8 () in
  let store = Serve.Range_store.create ~q:8 ~lo:w.lo ~hi:w.hi () in
  let r1 = Serve.Range_store.query store w.queries in
  check_matches "first batch = oracle" w.expected
    r1.Serve.Range_store.matches;
  (* the first batch pays exactly what a one-shot run does, and a bare
     session over the same module decodes the same selection *)
  let compiled =
    C4cam.Acam.compile
      ~spec:(C4cam.Acam.fit_spec ~boxes:12 ~dims:6 ())
      ~q:8 ~boxes:12 ~dims:6
  in
  let once = C4cam.Acam.run compiled ~lo:w.lo ~hi:w.hi ~queries:w.queries in
  Alcotest.(check (float 0.)) "first batch latency = one-shot"
    once.latency r1.latency;
  Alcotest.(check (float 0.)) "first batch energy = one-shot" once.energy
    r1.energy;
  let session = Serve.Session.of_acam compiled ~lo:w.lo ~hi:w.hi in
  let sr = Serve.Session.query session w.queries in
  Alcotest.(check Tutil.rows_testable) "session values = one-shot"
    once.values sr.values;
  Alcotest.(check Tutil.int_rows_testable) "session indices = one-shot"
    once.indices sr.indices;
  let writes_1 = (Serve.Range_store.stats store).Serve.Session.write_ops in
  let e_write_1 =
    (Serve.Range_store.stats store).Serve.Session.write_energy_j
  in
  let r2 = Serve.Range_store.query store w.queries in
  check_matches "second batch identical" r1.Serve.Range_store.matches
    r2.Serve.Range_store.matches;
  Alcotest.(check int) "box writes paid once" writes_1
    (Serve.Range_store.stats store).Serve.Session.write_ops;
  Alcotest.(check (float 0.)) "no extra write energy" e_write_1
    (Serve.Range_store.stats store).Serve.Session.write_energy_j;
  Alcotest.(check bool) "searches still charged" true
    (r2.Serve.Range_store.energy > 0.)

(* The batch latency rule: shards are independent devices, so a batch
   of several q-chunks costs the slowest shard's summed chunk time, not
   the per-chunk slowest shard summed over chunks. Box 64 is rewritten
   before the two-chunk batch, so its shard is the slower one on the
   first chunk and the other shard on the second: the rules differ. *)
let test_store_latency_rule () =
  let boxes = 65 and dims = 4 and q = 2 in
  let w =
    Range_filter.generate ~seed:3 ~boxes ~dims ~n_queries:(2 * q) ()
  in
  let chunk c = Array.sub w.queries (c * q) q in
  (* a warm-up batch, then box 64 widened — when the store holds it *)
  let prepared ~shards (off, n) =
    let s =
      Serve.Range_store.create ~shards ~q ~lo:(Array.sub w.lo off n)
        ~hi:(Array.sub w.hi off n) ()
    in
    ignore (Serve.Range_store.query s w.queries);
    if off + n = boxes then
      Serve.Range_store.update_box s ~row:(n - 1) ~lo:(Array.make dims 0.)
        ~hi:(Array.make dims 1.);
    s
  in
  let latency s batch = (Serve.Range_store.query s batch).latency in
  let got = latency (prepared ~shards:2 (0, boxes)) w.queries in
  (* each shard's slice alone: the batch whole, and chunk by chunk *)
  let slices = [ (0, 33); (33, 32) ] in
  let whole =
    List.map (fun sl -> latency (prepared ~shards:1 sl) w.queries) slices
  in
  let per_chunk =
    List.map
      (fun sl ->
        let s = prepared ~shards:1 sl in
        List.init 2 (fun c -> latency s (chunk c)))
      slices
  in
  Alcotest.(check (float 0.)) "max over shards of summed chunks"
    (List.fold_left Float.max 0. whole) got;
  let chunk_max c =
    List.fold_left (fun m l -> Float.max m (List.nth l c)) 0. per_chunk
  in
  Alcotest.(check bool) "not the sum over chunks of the slowest shard" true
    (got < chunk_max 0 +. chunk_max 1)

let test_store_shard_invariance () =
  let w = Range_filter.generate ~seed:12 ~boxes:13 ~dims:5 ~n_queries:16 () in
  let serve shards =
    let store =
      Serve.Range_store.create ~shards ~q:8 ~lo:w.lo ~hi:w.hi ()
    in
    let r = Serve.Range_store.query store w.queries in
    (r.Serve.Range_store.matches, r.Serve.Range_store.values)
  in
  let m1, v1 = serve 1 in
  check_matches "1 shard = oracle" w.expected m1;
  List.iter
    (fun shards ->
      let m, v = serve shards in
      check_matches
        (Printf.sprintf "%d shards byte-identical" shards)
        m1 m;
      Alcotest.(check bool) "violation counts identical" true (v = v1))
    [ 2; 3; 5 ]

let test_store_update_box () =
  let w = Range_filter.generate ~seed:14 ~boxes:9 ~dims:4 ~n_queries:8 () in
  let store = Serve.Range_store.create ~shards:3 ~q:8 ~lo:w.lo ~hi:w.hi () in
  ignore (Serve.Range_store.query store w.queries);
  let writes = (Serve.Range_store.stats store).Serve.Session.write_ops in
  (* widen box 4 to the whole cube: every query now matches some box *)
  Serve.Range_store.update_box store ~row:4 ~lo:(Array.make 4 0.)
    ~hi:(Array.make 4 1.);
  let r = Serve.Range_store.query store w.queries in
  Alcotest.(check bool) "changed row recharged" true
    ((Serve.Range_store.stats store).Serve.Session.write_ops > writes);
  let lo' = Array.map Array.copy w.lo and hi' = Array.map Array.copy w.hi in
  lo'.(4) <- Array.make 4 0.;
  hi'.(4) <- Array.make 4 1.;
  let expect =
    Array.map (fun q -> Range_filter.oracle ~lo:lo' ~hi:hi' q) w.queries
  in
  check_matches "updated store = updated oracle" expect
    r.Serve.Range_store.matches

(* Non-finite values are refused at every entry point, and a refusal
   leaves the table unchanged: NaN compares false both ways, so a NaN
   bound or query cell would otherwise count as no violation. *)
let test_store_non_finite () =
  let w = Range_filter.generate ~seed:16 ~boxes:6 ~dims:4 ~n_queries:4 () in
  let refused what f =
    match f () with
    | exception Serve.Range_store.Store_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Store_error" what
  in
  let with_cell v (row : float array) =
    let row = Array.copy row in
    row.(2) <- v;
    row
  in
  List.iter
    (fun v ->
      let lo = Array.copy w.lo in
      lo.(1) <- with_cell v lo.(1);
      refused "create" (fun () ->
          Serve.Range_store.create ~shards:2 ~q:4 ~lo ~hi:w.hi ()))
    [ Float.nan; Float.infinity ];
  let store = Serve.Range_store.create ~shards:2 ~q:4 ~lo:w.lo ~hi:w.hi () in
  List.iter
    (fun v ->
      refused "update_box" (fun () ->
          Serve.Range_store.update_box store ~row:4
            ~lo:(Array.make 4 Float.nan) ~hi:(Array.make 4 v));
      refused "query" (fun () ->
          Serve.Range_store.query store
            (Array.map (with_cell v) w.queries)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check_matches "table unchanged" w.expected
    (Serve.Range_store.query store w.queries).Serve.Range_store.matches

let test_store_backend () =
  let w = Range_filter.generate ~seed:15 ~boxes:6 ~dims:4 ~n_queries:4 () in
  let store = Serve.Range_store.create ~q:4 ~lo:w.lo ~hi:w.hi () in
  let b = Serve.Range_store.backend store in
  Alcotest.(check int) "arity" 4 b.Serve.Backend.q;
  Alcotest.(check int) "row width" 4 b.Serve.Backend.d;
  let reply = b.Serve.Backend.query w.queries in
  check_matches "backend reply carries box ids" w.expected
    (Array.map (fun (row : int array) -> row.(0)) reply.Serve.Backend.indices);
  let section = b.Serve.Backend.serve_section () in
  Alcotest.(check int) "section counts the boxes" 6
    section.Instrument.Profile.rows_stored;
  Alcotest.(check int) "one batch" 1 section.Instrument.Profile.batches

let () =
  Alcotest.run "range"
    [
      ( "range",
        [
          Alcotest.test_case "oracle basics" `Quick test_oracle_basics;
          Alcotest.test_case "generator invariants" `Quick
            test_generate_invariants;
          Alcotest.test_case "differential vs oracle" `Quick
            test_differential;
          Alcotest.test_case "accuracy helper" `Quick test_accuracy_helper;
          Alcotest.test_case "geometry errors" `Quick test_geometry_errors;
          Alcotest.test_case "replay range writes" `Quick
            test_replay_write_range;
          Alcotest.test_case "range write double charge" `Quick
            test_range_write_double_charge;
          QCheck_alcotest.to_alcotest prop_acam_cost_closed_form;
          Alcotest.test_case "update_table errors name the table" `Quick
            test_update_table_errors;
          Alcotest.test_case "store amortizes writes" `Quick
            test_store_amortizes_writes;
          Alcotest.test_case "store latency rule" `Quick
            test_store_latency_rule;
          Alcotest.test_case "store shard invariance" `Quick
            test_store_shard_invariance;
          Alcotest.test_case "store update box" `Quick test_store_update_box;
          Alcotest.test_case "store non-finite values refused" `Quick
            test_store_non_finite;
          Alcotest.test_case "store backend" `Quick test_store_backend;
        ] );
    ]
