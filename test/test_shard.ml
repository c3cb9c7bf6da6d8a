(* The sharded store: randomized differential against a single-kernel
   oracle, FIFO slot reuse after deletes, top-k tie stability in
   external-id order, per-shard write isolation under replay diffing,
   input validation, and the server front-end over a sharded backend —
   plus one QCheck property holding both sharded stores to a
   brute-force model across shard counts and jobs (docs/SHARDING.md). *)

module Store = Serve.Sharded_store

let spec = Tutil.spec32

(* ---- the oracle -------------------------------------------------------- *)

(* Ground truth for a top-k query over the live rows: one scores-form
   kernel over ALL live rows in ascending external-id order (no shards,
   no allocator, no merge tree), then a full host-side sort of each
   row's distances by (distance, external id). The store must agree
   bit-for-bit on both the k distances and the k ids. *)
let oracle ~q ~d ~k ~ids ~stored queries =
  let n = Array.length stored in
  (* pad the row count up to the partition pass's divisibility
     constraint; pad rows are never candidates (the sort below only
     ranks the first [n] columns) *)
  let rows = spec.Archspec.Spec.rows in
  let n_pad =
    if n > rows && n mod rows <> 0 then ((n / rows) + 1) * rows else n
  in
  let stored =
    if n_pad = n then stored
    else Array.append stored (Array.make (n_pad - n) stored.(0))
  in
  let c =
    C4cam.Driver.compile ~spec
      (Workloads.Kernels.hdc_dot_scores ~q ~dims:d ~classes:n_pad)
  in
  let r = C4cam.Driver.run_cam c ~queries ~stored in
  let scores =
    match r.C4cam.Driver.scores with
    | Some s -> s
    | None -> Alcotest.fail "oracle kernel returned no score matrix"
  in
  Array.map
    (fun (row : float array) ->
      let order = Array.init n Fun.id in
      Array.sort
        (fun a b ->
          match Float.compare row.(a) row.(b) with
          | 0 -> compare ids.(a) ids.(b)
          | c -> c)
        order;
      ( Array.init k (fun i -> row.(order.(i))),
        Array.init k (fun i -> ids.(order.(i))) ))
    scores

(* A host-side model of the live set, mirrored into the store op by op
   so the oracle always knows the ground truth. *)
type model = {
  rows : (int, float array) Hashtbl.t;
  mutable next : int;
}

let model_live m =
  let l =
    Hashtbl.fold (fun id row acc -> (id, row) :: acc) m.rows []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  ( Array.of_list (List.map fst l),
    Array.of_list (List.map snd l) )

(* ---- randomized differential ------------------------------------------ *)

let test_differential () =
  let q = 4 and d = 64 and k = 3 and capacity = 48 and initial = 32 in
  let data =
    Workloads.Hdc.synthetic ~seed:31 ~noise:0.2 ~dims:d ~n_classes:initial
      ~n_queries:16 ~bits:1 ()
  in
  let n_pool_q = Array.length data.queries in
  List.iter (fun jobs ->
      List.iter (fun shards ->
          let what = Printf.sprintf "jobs %d shards %d" jobs shards in
          Parallel.run ~jobs @@ fun _ ->
          let store = Store.create ~spec ~q ~d ~k ~shards ~capacity () in
          let m = { rows = Hashtbl.create 64; next = 0 } in
          let ins row =
            let id = Store.insert store row in
            Alcotest.(check int) (what ^ ": monotonic id") m.next id;
            Hashtbl.replace m.rows id row;
            m.next <- id + 1
          in
          Array.iter ins data.stored;
          let rng = Rng.create (97 + jobs + (31 * shards)) in
          for _round = 1 to 4 do
            (* a few seeded mutations: delete, slot-reusing insert,
               in-place update *)
            for _ = 1 to 2 + Rng.int rng 3 do
              let ids, _ = model_live m in
              let n_live = Array.length ids in
              match Rng.int rng 3 with
              | 0 when n_live > k + 2 ->
                  let id = ids.(Rng.int rng n_live) in
                  Store.delete store id;
                  Hashtbl.remove m.rows id
              | 1 when n_live < capacity ->
                  ins data.stored.(Rng.int rng initial)
              | _ ->
                  let id = ids.(Rng.int rng n_live) in
                  let row = data.stored.(Rng.int rng initial) in
                  Store.update store id row;
                  Hashtbl.replace m.rows id row
            done;
            let off = Rng.int rng (n_pool_q - q + 1) in
            let queries = Array.sub data.queries off q in
            let r = Store.query store queries in
            let ids, stored = model_live m in
            let want = oracle ~q ~d ~k ~ids ~stored queries in
            Array.iteri
              (fun g (wv, wi) ->
                Alcotest.(check Tutil.rows_testable)
                  (what ^ ": values") [| wv |] [| r.Store.values.(g) |];
                Alcotest.(check Tutil.int_rows_testable)
                  (what ^ ": ids") [| wi |] [| r.Store.indices.(g) |])
              want
          done)
        [ 1; 3; 4 ])
    [ 1; 4 ]

(* Distinct batches, each two q-row chunks, on a 4-shard store at jobs
   2: a shard's session refills one query buffer per chunk and its runs
   land on either domain, so a query slot keyed on the buffer alone
   would answer a chunk with an earlier chunk's packs. Every batch must
   equal a one-shot run over its own rows. *)
let test_distinct_batches () =
  let q = 4 and d = 32 and k = 3 and rows = 256 in
  let data =
    Workloads.Hdc.synthetic ~seed:41 ~noise:0.2 ~dims:d ~n_classes:rows
      ~n_queries:48 ~bits:1 ()
  in
  Parallel.run ~jobs:2 @@ fun _ ->
  let store = Store.create ~spec ~q ~d ~k ~shards:4 ~capacity:rows () in
  let ids = Array.map (Store.insert store) data.stored in
  for b = 0 to 5 do
    let batch = Array.sub data.queries (b * 2 * q) (2 * q) in
    let r = Store.query store batch in
    let want = oracle ~q:(2 * q) ~d ~k ~ids ~stored:data.stored batch in
    Array.iteri
      (fun g (wv, wi) ->
        let what = Printf.sprintf "batch %d row %d" b g in
        Alcotest.(check Tutil.rows_testable)
          (what ^ ": values") [| wv |] [| r.Store.values.(g) |];
        Alcotest.(check Tutil.int_rows_testable)
          (what ^ ": ids") [| wi |] [| r.Store.indices.(g) |])
      want
  done

(* ---- one property for both stores ------------------------------------- *)

(* The brute-force model either store must agree with: score every live
   row against the query row, sort by (value, id), keep the first [k].
   Written from scratch — no Topk, no store or merge helper. *)
let brute_topk ~k ~dist live query =
  List.map (fun (id, row) -> (dist query row, id)) live
  |> List.sort compare
  |> List.filteri (fun i _ -> i < k)

(* binary rows: the CAM distance is the mismatch count *)
let hamming a b =
  let n = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr n) a;
  float_of_int !n

(* a box's distance is the number of dimensions the point falls outside
   its inclusive [lo, hi] interval *)
let violations x (lo, hi) =
  let n = ref 0 in
  Array.iteri (fun i v -> if v < lo.(i) || v > hi.(i) then incr n) x;
  float_of_int !n

type vec_op =
  | Insert of float array
  | Delete of int  (* index into the live rows, taken mod their count *)
  | Update of int * float array
  | Query of float array array

type box_op =
  | Update_box of int * float array * float array
  | Query_boxes of float array array

type scenario = {
  rows : float array list;  (* the vector store's initial rows *)
  vec_ops : vec_op list;
  boxes : (float array * float array) array;
  box_ops : box_op list;
}

let vq = 2 and vd = 32 and vk = 3 and vcap = 12
let bq = 2 and bdims = 3

let gen_scenario =
  let open QCheck.Gen in
  let bit = oneofl [ 0.; 1. ] in
  let row = array_size (return vd) bit in
  let grid = map (fun i -> float_of_int i /. 8.) (int_range 0 8) in
  let point = array_size (return bdims) grid in
  let box =
    let* a = point and* b = point in
    return (Array.map2 Float.min a b, Array.map2 Float.max a b)
  in
  (* rows drawn from a small pool, so duplicate contents force ties *)
  let* pool = array_size (int_range 2 6) row in
  let pooled = oneofa pool in
  let* rows = list_size (int_range vk 9) pooled in
  let vec_op =
    frequency
      [
        (3, map (fun r -> Insert r) pooled);
        (2, map (fun i -> Delete i) nat);
        (2, map2 (fun i r -> Update (i, r)) nat pooled);
        (4, map (fun b -> Query b) (array_size (return vq) row));
      ]
  in
  let* vec_ops = list_size (int_range 2 10) vec_op in
  let* boxes = array_size (int_range 5 12) box in
  let box_op =
    frequency
      [
        ( 1,
          map2
            (fun i (lo, hi) -> Update_box (i, lo, hi))
            (int_bound (Array.length boxes - 1))
            box );
        (2, map (fun b -> Query_boxes b) (array_size (return bq) point));
      ]
  in
  let* box_ops = list_size (int_range 1 6) box_op in
  return { rows; vec_ops; boxes; box_ops }

let print_scenario s =
  Printf.sprintf "%d rows + %d ops, %d boxes + %d ops"
    (List.length s.rows) (List.length s.vec_ops) (Array.length s.boxes)
    (List.length s.box_ops)

let check_result what ~want (values : float array array) indices =
  Array.iteri
    (fun g expected ->
      let got =
        List.init (Array.length values.(g)) (fun j ->
            (values.(g).(j), indices.(g).(j)))
      in
      if got <> expected then
        QCheck.Test.fail_reportf "%s, query row %d: store [%s], model [%s]"
          what g
          (String.concat "; "
             (List.map (fun (v, i) -> Printf.sprintf "%g@%d" v i) got))
          (String.concat "; "
             (List.map (fun (v, i) -> Printf.sprintf "%g@%d" v i) expected)))
    want

let replay_vectors s ~shards =
  let what = Printf.sprintf "sharded store, %d shards" shards in
  let store =
    Store.create ~spec ~q:vq ~d:vd ~k:vk ~shards ~capacity:vcap ()
  in
  let live = Hashtbl.create 16 and next = ref 0 in
  let insert row =
    let id = Store.insert store row in
    if id <> !next then
      QCheck.Test.fail_reportf "%s: insert assigned id %d, expected %d" what
        id !next;
    Hashtbl.replace live id row;
    incr next
  in
  List.iter insert s.rows;
  let live_list () =
    Hashtbl.fold (fun id row acc -> (id, row) :: acc) live []
    |> List.sort compare
  in
  List.iter
    (fun op ->
      let l = live_list () in
      let n = List.length l in
      match op with
      | Insert row -> if n < vcap then insert row
      | Delete i when n > vk ->
          let id = fst (List.nth l (i mod n)) in
          Store.delete store id;
          Hashtbl.remove live id
      | Delete _ -> ()
      | Update (i, row) ->
          let id = fst (List.nth l (i mod n)) in
          Store.update store id row;
          Hashtbl.replace live id row
      | Query batch ->
          let r = Store.query store batch in
          check_result what r.Store.values r.Store.indices
            ~want:(Array.map (brute_topk ~k:vk ~dist:hamming l) batch))
    s.vec_ops

let replay_boxes s ~shards =
  let what = Printf.sprintf "range store, %d shards" shards in
  let model = Array.copy s.boxes in
  let store =
    Serve.Range_store.create ~shards ~q:bq
      ~lo:(Array.map fst model) ~hi:(Array.map snd model) ()
  in
  List.iter
    (function
      | Update_box (row, lo, hi) ->
          Serve.Range_store.update_box store ~row ~lo ~hi;
          model.(row) <- (lo, hi)
      | Query_boxes batch ->
          let r = Serve.Range_store.query store batch in
          let live = List.mapi (fun id b -> (id, b)) (Array.to_list model) in
          let want =
            Array.map (brute_topk ~k:1 ~dist:violations live) batch
          in
          check_result what r.Serve.Range_store.values
            r.Serve.Range_store.indices ~want;
          Array.iteri
            (fun g w ->
              let expect = match w with [ (0., id) ] -> id | _ -> -1 in
              if r.Serve.Range_store.matches.(g) <> expect then
                QCheck.Test.fail_reportf "%s: match %d, model %d" what
                  r.Serve.Range_store.matches.(g) expect)
            want)
    s.box_ops

let prop_both_stores =
  QCheck.Test.make ~count:25 ~name:"both stores vs brute-force model"
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun s ->
      List.iter
        (fun jobs ->
          Parallel.run ~jobs @@ fun _ ->
          List.iter
            (fun shards ->
              replay_vectors s ~shards;
              replay_boxes s ~shards)
            [ 1; 2; 3; 5 ])
        [ 1; 4 ];
      true)

(* ---- delete-then-reuse ------------------------------------------------- *)

(* Stale device rows must never surface: after a delete, a query for
   the deleted row's exact contents finds the re-inserted copy under
   its NEW id, and the freed capacity is accounted. *)
let test_delete_then_reuse () =
  let q = 4 and d = 64 and k = 2 and capacity = 16 in
  let data =
    Workloads.Hdc.synthetic ~seed:5 ~dims:d ~n_classes:capacity
      ~n_queries:4 ~bits:1 ()
  in
  Parallel.run ~jobs:1 @@ fun _ ->
  let store = Store.create ~spec ~q ~d ~k ~shards:2 ~capacity () in
  Array.iter (fun r -> ignore (Store.insert store r)) data.stored;
  Alcotest.(check int) "full" 0 (Store.rows_free store);
  (* free two slots, re-insert the same contents under fresh ids *)
  Store.delete store 3;
  Store.delete store 11;
  Alcotest.(check int) "freed" 2 (Store.rows_free store);
  let id_a = Store.insert store data.stored.(3) in
  let id_b = Store.insert store data.stored.(11) in
  Alcotest.(check (list int)) "fresh ids" [ 16; 17 ] [ id_a; id_b ];
  Alcotest.(check int) "full again" 0 (Store.rows_free store);
  Alcotest.(check int) "live count" capacity (Store.rows_stored store);
  (* an exact-content probe must name the new ids, not the stale ones *)
  let probe = Array.make q data.stored.(3) in
  probe.(1) <- data.stored.(11);
  let r = Store.query store probe in
  Alcotest.(check int) "row 3 resurfaces as 16" id_a r.Store.indices.(0).(0);
  Alcotest.(check int) "row 11 resurfaces as 17" id_b
    r.Store.indices.(1).(0);
  (* ... and the stale ids are gone from every top-k list *)
  Array.iter
    (Array.iter (fun id ->
         if id = 3 || id = 11 then
           Alcotest.failf "stale id %d surfaced after delete" id))
    r.Store.indices

(* ---- top-k ties -------------------------------------------------------- *)

(* Duplicate contents scattered across shards tie exactly; the merged
   top-k must list them in ascending external-id order for any shard
   count — the device's physical slot order must never leak. *)
let test_tie_stability () =
  let q = 4 and d = 64 and k = 4 and capacity = 48 in
  let data =
    Workloads.Hdc.synthetic ~seed:13 ~dims:d ~n_classes:40 ~n_queries:4
      ~bits:1 ()
  in
  let dup = data.stored.(7) in
  let results =
    List.map
      (fun shards ->
        Parallel.run ~jobs:1 @@ fun _ ->
        let store = Store.create ~spec ~q ~d ~k ~shards ~capacity () in
        Array.iter (fun r -> ignore (Store.insert store r)) data.stored;
        (* four exact copies, ids 40..43 (40 duplicates id 7's row) *)
        for _ = 1 to 3 do
          ignore (Store.insert store dup)
        done;
        let r = Store.query store (Array.make q dup) in
        Array.iter
          (fun (ids : int array) ->
            Alcotest.(check (array int))
              (Printf.sprintf "shards %d: ties in id order" shards)
              [| 7; 40; 41; 42 |] ids;
            ())
          r.Store.indices;
        (* the tied distances are bit-identical *)
        Array.iter
          (fun (vals : float array) ->
            Array.iter
              (fun v ->
                Alcotest.(check bool) "tied distance" true
                  (Int64.bits_of_float v = Int64.bits_of_float vals.(0)))
              vals)
          r.Store.values;
        (* deleting one of the ties promotes the next id, stably *)
        Store.delete store 41;
        let id_new = Store.insert store dup in
        let r2 = Store.query store (Array.make q dup) in
        Alcotest.(check (array int))
          (Printf.sprintf "shards %d: ties after slot reuse" shards)
          [| 7; 40; 42; id_new |]
          r2.Store.indices.(0);
        (r.Store.values, r.Store.indices))
      [ 1; 4 ]
  in
  match results with
  | [ (v1, i1); (v4, i4) ] ->
      Alcotest.(check Tutil.rows_testable) "values shard-invariant" v1 v4;
      Alcotest.(check Tutil.int_rows_testable) "ids shard-invariant" i1 i4
  | _ -> assert false

(* ---- per-shard write isolation ---------------------------------------- *)

(* An update touches exactly one shard's device, and its replay charges
   far less than the shard's initial full write — the diffing contract.
   A delete alone charges nothing anywhere. *)
let test_write_isolation () =
  let q = 4 and d = 64 and k = 3 and capacity = 256 in
  let data =
    Workloads.Hdc.synthetic ~seed:19 ~dims:d ~n_classes:capacity
      ~n_queries:4 ~bits:1 ()
  in
  Parallel.run ~jobs:1 @@ fun _ ->
  let store = Store.create ~spec ~q ~d ~k ~shards:4 ~capacity () in
  Array.iter (fun r -> ignore (Store.insert store r)) data.stored;
  let probe () = ignore (Store.query store (Array.sub data.queries 0 q)) in
  probe ();
  let writes () =
    Array.map
      (fun (i : Store.shard_info) -> i.Store.info_write_ops)
      (Store.stats store).Store.per_shard
  in
  let w0 = writes () in
  Array.iter
    (fun w -> Alcotest.(check bool) "initial write charged" true (w > 0))
    w0;
  (* delete: metadata only, no device writes on the next replay *)
  Store.delete store 100;
  probe ();
  Alcotest.(check (array int)) "delete charges nothing" w0 (writes ());
  (* update: exactly one shard pays, and less than its initial fill *)
  Store.update store 0 data.stored.(1);
  probe ();
  let w1 = writes () in
  let touched = ref 0 in
  Array.iteri
    (fun s w ->
      if w <> w0.(s) then begin
        incr touched;
        Alcotest.(check bool) "diffed replay, not a full rewrite" true
          (w - w0.(s) < w0.(s))
      end)
    w1;
  Alcotest.(check int) "exactly one shard written" 1 !touched

(* ---- validation -------------------------------------------------------- *)

let test_errors () =
  let q = 4 and d = 64 and k = 3 and capacity = 16 in
  let data =
    Workloads.Hdc.synthetic ~seed:3 ~dims:d ~n_classes:capacity
      ~n_queries:4 ~bits:1 ()
  in
  Parallel.run ~jobs:1 @@ fun _ ->
  let expect_err what f =
    match f () with
    | exception Store.Store_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Store_error" what
  in
  expect_err "zero shards" (fun () ->
      Store.create ~spec ~q ~d ~k ~shards:0 ~capacity ());
  expect_err "capacity below k" (fun () ->
      Store.create ~spec ~q ~d ~k ~shards:1 ~capacity:(k - 1) ());
  let store = Store.create ~spec ~q ~d ~k ~shards:2 ~capacity () in
  expect_err "bad insert width" (fun () ->
      Store.insert store (Array.make (d - 1) 0.));
  expect_err "top-k under-filled" (fun () ->
      Store.query store (Array.sub data.queries 0 q));
  Array.iter (fun r -> ignore (Store.insert store r)) data.stored;
  expect_err "insert past capacity" (fun () ->
      Store.insert store data.stored.(0));
  expect_err "unknown delete" (fun () -> Store.delete store 999);
  expect_err "unknown update" (fun () ->
      Store.update store 999 data.stored.(0));
  expect_err "bad update width" (fun () ->
      Store.update store 0 (Array.make (d + 1) 0.));
  (* a short batch is served: the shards run their (q - 1)-row
     lowerings *)
  Alcotest.(check int) "short batch served" (q - 1)
    (Array.length (Store.query store (Array.sub data.queries 0 (q - 1))).values);
  expect_err "empty batch" (fun () -> Store.query store [||]);
  (* every query row must be exactly d wide, too short or too long *)
  let with_row1 row =
    Array.init q (fun i -> if i = 1 then row else data.queries.(i))
  in
  expect_err "narrow query row" (fun () ->
      Store.query store (with_row1 (Array.make (d - 3) 0.)));
  expect_err "wide query row" (fun () ->
      Store.query store (with_row1 (Array.make (d + 3) 0.)))

(* NaN and infinities are refused at every entry point, and a refusal
   leaves the store answering exactly as before it. *)
let test_non_finite () =
  let q = 4 and d = 64 and k = 2 and capacity = 8 in
  let data =
    Workloads.Hdc.synthetic ~seed:7 ~dims:d ~n_classes:capacity
      ~n_queries:q ~bits:1 ()
  in
  Parallel.run ~jobs:1 @@ fun _ ->
  let store = Store.create ~spec ~q ~d ~k ~shards:2 ~capacity () in
  Array.iter (fun r -> ignore (Store.insert store r)) data.stored;
  Store.delete store 0;
  let before = Store.query store data.queries in
  let poisoned v =
    let row = Array.copy data.stored.(1) in
    row.(5) <- v;
    row
  in
  List.iter
    (fun v ->
      let what fmt = Printf.sprintf fmt (Float.to_string v) in
      (match Store.insert store (poisoned v) with
      | exception Store.Store_error _ -> ()
      | _ -> Alcotest.fail (what "insert of a %s cell accepted"));
      (match Store.update store 1 (poisoned v) with
      | exception Store.Store_error _ -> ()
      | () -> Alcotest.fail (what "update with a %s cell accepted"));
      let batch = Array.map (fun _ -> poisoned v) data.queries in
      match Store.query store batch with
      | exception Store.Store_error _ -> ()
      | _ -> Alcotest.fail (what "query with a %s cell answered"))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (match Store.insert store (Array.make d Float.nan) with
  | exception Store.Store_error _ -> ()
  | _ -> Alcotest.fail "all-NaN row accepted");
  Alcotest.(check int) "nothing inserted" (capacity - 1)
    (Store.rows_stored store);
  let after = Store.query store data.queries in
  Alcotest.(check Tutil.rows_testable) "values unchanged"
    before.Store.values after.Store.values;
  Alcotest.(check Tutil.int_rows_testable) "ids unchanged"
    before.Store.indices after.Store.indices

(* ---- ragged batches against brute-force host oracles ------------------- *)

(* Every batch size from 1 to 2q - 1 through a sharded store whose live
   rows include duplicates in reused slots, against a host top-k over
   the live rows by (Hamming distance, external id). A deleted row's
   slot is taken by a later insert with a higher id, so slot order is
   not id order, and the duplicates tie on distance: only the
   external-id tie-break orders them. *)
let test_ragged_store () =
  let q = 4 and d = 64 and k = 3 and capacity = 24 in
  let data =
    Workloads.Hdc.synthetic ~seed:61 ~dims:d ~n_classes:8
      ~n_queries:(2 * q) ~bits:1 ()
  in
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _ ->
      let store = Store.create ~spec ~q ~d ~k ~shards:3 ~capacity () in
      let live = Hashtbl.create 32 in
      let insert row = Hashtbl.replace live (Store.insert store row) row in
      (* each prototype twice, then drop the first copies and insert
         both copies once more into the freed slots *)
      Array.iter insert data.stored;
      Array.iter insert data.stored;
      for id = 0 to 7 do
        Store.delete store id;
        Hashtbl.remove live id
      done;
      Array.iter insert data.stored;
      let cands = Hashtbl.fold (fun id row acc -> (id, row) :: acc) live [] in
      for rows = 1 to (2 * q) - 1 do
        let batch = Array.sub data.queries 0 rows in
        let r = Store.query store batch in
        Array.iteri
          (fun i qr ->
            let values, ids =
              Tutil.sorted_prefix ~k
                (List.map (fun (id, row) -> (Tutil.hamming qr row, id)) cands)
            in
            let what = Printf.sprintf "jobs %d, %d rows, row %d" jobs rows i in
            Alcotest.(check (array (float 0.)))
              (what ^ ": values") values r.Store.values.(i);
            Alcotest.(check (array int)) (what ^ ": ids") ids
              r.Store.indices.(i))
          batch
      done)
    [ 1; 4 ]

(* The shards of one store share the kernel lowered for a tail of r
   rows: a 4-shard store serving every r in 1..q-1 lowers each r once,
   at jobs 1 and 4, and answers as host top-k does. *)
let test_shared_lowerings () =
  let q = 8 and d = 64 and k = 2 and capacity = 64 in
  let data =
    Workloads.Hdc.synthetic ~seed:67 ~dims:d ~n_classes:16 ~n_queries:q
      ~bits:1 ()
  in
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _ ->
      Serve.Artifact_cache.clear ();
      let store = Store.create ~spec ~q ~d ~k ~shards:4 ~capacity () in
      let cands =
        Array.to_list (Array.map (fun row -> (Store.insert store row, row)) data.stored)
      in
      let before = Serve.Artifact_cache.lowerings () in
      for _ = 1 to 2 do
        for rows = 1 to q - 1 do
          let batch = Array.sub data.queries 0 rows in
          let r = Store.query store batch in
          Array.iteri
            (fun i qr ->
              let values, ids =
                Tutil.sorted_prefix ~k
                  (List.map (fun (id, row) -> (Tutil.hamming qr row, id)) cands)
              in
              let what = Printf.sprintf "jobs %d, %d rows, row %d" jobs rows i in
              Alcotest.(check (array (float 0.)))
                (what ^ ": values") values r.Store.values.(i);
              Alcotest.(check (array int)) (what ^ ": ids") ids
                r.Store.indices.(i))
            batch
        done
      done;
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: one lowering per r" jobs)
        (q - 1)
        (Serve.Artifact_cache.lowerings () - before))
    [ 1; 4 ]

(* The scores-form ledgers in closed form, from Energy_model's
   formulas. The kernel is hdc_dot_scores at q 4, 64 dims and 64 rows
   on the 32x32 base spec: 2 x 2 tiles of 32 rows, one per subarray of
   one bank, mat and array, all levels parallel. *)
let scores_tile_costs ~q =
  let module E = Camsim.Energy_model in
  let tech = Camsim.Tech.fefet_45nm in
  let search =
    E.search tech ~bits:spec.bits ~cols:spec.cols ~active_rows:32
      ~physical_rows:spec.rows ~kind:`Best ~queries:q ~batch_extra:false ()
  in
  (E.write tech ~bits:spec.bits ~cols:spec.cols ~rows:32, search,
   E.merge tech ~elems:(q * 32))

(* A session of N batches is charged its writes and its device
   allocation once, on the recorded first batch (a replayed allocation
   or an unchanged write is free), and its searches and merges N
   times. *)
let test_session_ledger () =
  let module E = Camsim.Energy_model in
  let q = 4 and tiles = 4 and n_batches = 5 in
  let data =
    Workloads.Hdc.synthetic ~seed:71 ~dims:64 ~n_classes:64 ~n_queries:q
      ~bits:1 ()
  in
  let session =
    Serve.Session.create ~spec ~stored:data.stored
      (Workloads.Kernels.hdc_dot_scores ~q ~dims:64 ~classes:64)
  in
  for _ = 1 to n_batches do
    ignore (Serve.Session.query session data.queries)
  done;
  let write, search, merge = scores_tile_costs ~q in
  let tech = Camsim.Tech.fefet_45nm in
  let overhead =
    List.fold_left
      (fun e level -> e +. (E.level_overhead tech ~level ~queries:q).energy)
      0.
      ([ `Bank; `Mat; `Array ] @ List.init tiles (fun _ -> `Subarray))
  in
  let n = float_of_int n_batches and t = float_of_int tiles in
  let st = Serve.Session.stats session in
  let dev = Camsim.Simulator.stats (Serve.Session.simulator session) in
  Alcotest.(check int) "write ops" tiles dev.n_write_ops;
  Alcotest.(check int) "search ops" (n_batches * tiles) dev.n_search_ops;
  Tutil.check_float ~eps:1e-12 "write energy" (t *. write.energy)
    st.write_energy_j;
  Tutil.check_float ~eps:1e-12 "energy"
    (overhead +. (t *. write.energy)
    +. (n *. t *. (search.energy +. merge.energy)))
    st.sim_energy_j;
  Tutil.check_float ~eps:1e-12 "latency"
    (write.latency +. (n *. (search.latency +. merge.latency)))
    st.sim_latency_s

(* A warm Sharded_store batch takes the slowest shard's latency and the
   sum of the shards' energy: 3 shards of 64 rows, each the kernel
   above. *)
let test_store_ledger () =
  let q = 4 and shards = 3 and tiles = 4 in
  let data =
    Workloads.Hdc.synthetic ~seed:73 ~dims:64 ~n_classes:(shards * 64)
      ~n_queries:q ~bits:1 ()
  in
  let store =
    Store.create ~spec ~q ~d:64 ~k:2 ~shards ~capacity:(shards * 64) ()
  in
  Array.iter (fun row -> ignore (Store.insert store row)) data.stored;
  ignore (Store.query store data.queries);
  let r = Store.query store data.queries in
  let _, search, merge = scores_tile_costs ~q in
  Tutil.check_float ~eps:1e-12 "latency: the slowest shard"
    (search.latency +. merge.latency) r.Store.latency;
  Tutil.check_float ~eps:1e-12 "energy: the sum over shards"
    (float_of_int (shards * tiles) *. (search.energy +. merge.energy))
    r.Store.energy

(* The range store on every batch size from 1 to 2q - 1, against a host
   scan: per query the box with the fewest violated dimensions (a value
   outside the box's bounds), ties on the lower global box id. *)
let test_ragged_range_store () =
  let q = 4 and boxes = 40 and dims = 6 in
  let w =
    Workloads.Range_filter.generate ~seed:17 ~boxes ~dims
      ~n_queries:(2 * q) ()
  in
  let violations (p : float array) b =
    let n = ref 0 in
    Array.iteri
      (fun j x -> if x < w.lo.(b).(j) || x > w.hi.(b).(j) then incr n)
      p;
    float_of_int !n
  in
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _ ->
      let store =
        Serve.Range_store.create ~shards:3 ~q ~lo:w.lo ~hi:w.hi ()
      in
      for rows = 1 to (2 * q) - 1 do
        let batch = Array.sub w.queries 0 rows in
        let r = Serve.Range_store.query store batch in
        Array.iteri
          (fun i p ->
            let values, ids =
              Tutil.sorted_prefix ~k:1
                (List.init boxes (fun b -> (violations p b, b)))
            in
            let what = Printf.sprintf "jobs %d, %d rows, row %d" jobs rows i in
            Alcotest.(check (array (float 0.)))
              (what ^ ": violations") values r.values.(i);
            Alcotest.(check (array int)) (what ^ ": box") ids r.indices.(i))
          batch
      done)
    [ 1; 4 ]

(* ---- the server front-end over a sharded backend ----------------------- *)

let test_server_backend () =
  let q = 4 and d = 64 and k = 1 and capacity = 32 in
  let data =
    Workloads.Hdc.synthetic ~seed:41 ~dims:d ~n_classes:capacity
      ~n_queries:16 ~bits:1 ()
  in
  Parallel.run ~jobs:1 @@ fun _ ->
  let mk () =
    let store = Store.create ~spec ~q ~d ~k ~shards:4 ~capacity () in
    Array.iter (fun r -> ignore (Store.insert store r)) data.stored;
    store
  in
  let served = mk () and reference = mk () in
  let server =
    Server.create_on
      ~config:{ Server.default_config with start_paused = true }
      (Store.backend served)
  in
  let clients = Array.init 4 (fun _ -> Server.connect server) in
  let tickets =
    List.init 16 (fun i ->
        (i, Server.submit clients.(i mod 4) [| data.queries.(i) |]))
  in
  Server.resume server;
  List.iter
    (fun (i, tk) ->
      let r = Server.await tk in
      (* the reference serves the same row padded to a full q-chunk:
         rows are independent, so row 0 is the single-row answer *)
      let want =
        Store.query reference (Array.make q data.queries.(i))
      in
      Alcotest.(check Tutil.rows_testable)
        "values via server" [| want.Store.values.(0) |] r.Server.r_values;
      Alcotest.(check Tutil.int_rows_testable)
        "ids via server" [| want.Store.indices.(0) |] r.Server.r_indices)
    tickets;
  Server.stop server;
  let st = Server.stats server in
  Alcotest.(check int) "all requests served" 16 st.Server.requests_served

(* A warm store batch puts (almost) nothing straight into the major
   heap: the tile nest's cam.read feeds its cam.merge_partial without a
   per-tile buffer, and an 8 x 64 float block (513 words) is past the
   minor heap's size limit, so one such buffer per tile would show here
   though the minor-words gate cannot see it. Measured at jobs 1 as the
   delta of direct major allocation (major words not promoted from the
   minor heap) over one batch. *)
let test_warm_batch_major_words () =
  Parallel.run ~jobs:1 @@ fun _pool ->
  let q = 8 and d = 64 and k = 3 and n = 2048 in
  let spec = Archspec.Spec.square 64 Archspec.Spec.Base in
  let rng = Rng.create 2048 in
  let bits () = Array.init d (fun _ -> float_of_int (Rng.int rng 2)) in
  let store = Store.create ~spec ~q ~d ~k ~shards:4 ~capacity:n () in
  for _ = 1 to n do
    ignore (Store.insert store (bits ()))
  done;
  let batch = Array.init q (fun _ -> bits ()) in
  for _ = 1 to 3 do
    ignore (Store.query store batch)
  done;
  (* [Gc.counters] reads this domain's own counters, direct major
     allocations included as they happen. OCaml 5.1's [Gc.quick_stat]
     is no measure here: it adds a domain's direct words into
     [major_words] only when a major slice runs, and it sums in the
     counters of other domains, which an earlier test's finished
     domains hand over at timing-dependent points. *)
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct () in
  ignore (Store.query store batch);
  let words = direct () -. before in
  if words >= 513. then
    Alcotest.failf "a warm batch put %.0f words straight into the major heap"
      words

let () =
  Alcotest.run "shard"
    [
      ( "sharded store",
        [
          Alcotest.test_case "oracle differential (jobs x engine x shards)"
            `Quick test_differential;
          Alcotest.test_case "distinct batches, 4 shards, jobs 2" `Quick
            test_distinct_batches;
          Alcotest.test_case "delete then reuse" `Quick
            test_delete_then_reuse;
          Alcotest.test_case "top-k tie stability" `Quick
            test_tie_stability;
          Alcotest.test_case "per-shard write isolation" `Quick
            test_write_isolation;
          Alcotest.test_case "validation" `Quick test_errors;
          Alcotest.test_case "ragged batches vs host top-k" `Quick
            test_ragged_store;
          Alcotest.test_case "shards share each r-row lowering" `Quick
            test_shared_lowerings;
          Alcotest.test_case "scores-form session ledger in closed form"
            `Quick test_session_ledger;
          Alcotest.test_case "store batch ledger: max latency, summed energy"
            `Quick test_store_ledger;
          Alcotest.test_case "ragged range batches vs host scan" `Quick
            test_ragged_range_store;
          Alcotest.test_case "non-finite values refused" `Quick
            test_non_finite;
          Alcotest.test_case "server over a sharded backend" `Quick
            test_server_backend;
          Alcotest.test_case "warm batch, no direct major words" `Quick
            test_warm_batch_major_words;
        ] );
      ("shard set", [ QCheck_alcotest.to_alcotest prop_both_stores ]);
    ]
