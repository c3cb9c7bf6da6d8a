(* The CI concurrency-stress gate for the serving front-end.

     dune exec bench/stress_serve.exe -- \
       [--clients N] [--schedules N] [--requests N] [--jobs N] \
       [--seed N] [--tcp | --mutate [--shards N]]

   Replays seeded arrival schedules against the micro-batching
   scheduler and enforces the determinism contract (docs/SERVING.md):
   every client's responses must be BIT-identical to its own request
   stream served one at a time through a private session, no matter how
   the concurrent submissions interleave, how full the micro-batches
   run, or how wide the domain pool is.

   The per-client request streams are fixed by --seed and do not vary
   across schedules — only the arrival timing does — so the sequential
   reference is computed once and each schedule is pure replay. CI runs
   this across a clients x jobs matrix. Exit code 1 on any
   divergence.

   With --tcp every client is a loopback connection to [Tcp.listen] in
   front of the server, each request goes out as [%.17g] text, and
   every reply line must equal [Tcp.format_response] of the sequential
   reference byte for byte: the same contract, held through the codec
   and the connection reader.

   With --mutate the gate targets both sharded stores instead
   (docs/SHARDING.md): seeded schedules interleaving
   insert/delete/update/query are replayed on a [Serve.Sharded_store]
   with --shards shards under the --jobs pool, and every query result
   (distances AND external ids, bit-compared) plus every insert's
   assigned id must match the same schedule replayed on a single-shard
   store at jobs 1. This drives slot reuse after deletes, duplicate-row
   ties and per-shard cache invalidation under partitioning. Seeded
   update_box/query schedules on a [Serve.Range_store] are held to the
   same single-shard jobs-1 reference (violation counts, box ids and
   matches), which covers the range store's parallel fan-out and its
   per-shard reprogramming after box updates. *)

let usage () =
  prerr_endline
    "usage: stress_serve.exe -- [--clients N] [--schedules N] \
     [--requests N] [--jobs N] [--seed N] [--tcp | --mutate [--shards N]]";
  exit 2

type opts = {
  clients : int;
  schedules : int;
  requests : int;
  jobs : int;
  seed : int;
  tcp : bool;
  mutate : bool;
  shards : int;
}

let parse_args args =
  let int_arg tl k =
    match tl with
    | n :: tl' -> (
        match int_of_string_opt n with Some n -> k n tl' | None -> usage ())
    | [] -> usage ()
  in
  let rec parse o = function
    | [] -> o
    | "--clients" :: tl -> int_arg tl (fun n tl -> parse { o with clients = n } tl)
    | "--schedules" :: tl ->
        int_arg tl (fun n tl -> parse { o with schedules = n } tl)
    | "--requests" :: tl ->
        int_arg tl (fun n tl -> parse { o with requests = n } tl)
    | "--jobs" :: tl -> int_arg tl (fun n tl -> parse { o with jobs = n } tl)
    | "--seed" :: tl -> int_arg tl (fun n tl -> parse { o with seed = n } tl)
    | "--tcp" :: tl -> parse { o with tcp = true } tl
    | "--mutate" :: tl -> parse { o with mutate = true } tl
    | "--shards" :: tl -> int_arg tl (fun n tl -> parse { o with shards = n } tl)
    | _ -> usage ()
  in
  parse
    { clients = 8; schedules = 25; requests = 6; jobs = 1; seed = 42;
      tcp = false; mutate = false; shards = 4 }
    args

(* Bit-level equality: the contract is byte-identical results, not
   results within epsilon. *)
let rows_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (ra : float array) rb ->
         Array.length ra = Array.length rb
         && Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              ra rb)
       a b

let int_rows_equal (a : int array array) b = a = b

(* ---- the --mutate leg: sharded-store mutation schedules --------------- *)

type mutation_op =
  | Op_insert of float array * int  (* row, the id the store must assign *)
  | Op_delete of int
  | Op_update of int * float array
  | Op_query of float array array

type range_op =
  | Op_update_box of int * float array * float array
  | Op_query_boxes of float array array

(* The range-store half of --mutate: returns the number of diverging
   query batches. Box updates copy another box's bounds (or widen a box
   to the whole cube), so matches keep changing hands between shards. *)
let range_gate o =
  let q = 4 and boxes = 32 and dims = 8 in
  let w =
    Workloads.Range_filter.generate ~seed:o.seed ~boxes ~dims ~n_queries:64
      ()
  in
  let n_pool_q = Array.length w.Workloads.Range_filter.queries in
  let gen_schedule schedule =
    let rng = Rng.create (o.seed + (7919 * (schedule + 1))) in
    List.init (o.requests * 8) (fun _ ->
        if Rng.int rng 100 < 40 then
          let row = Rng.int rng boxes and src = Rng.int rng (boxes + 1) in
          if src = boxes then
            Op_update_box (row, Array.make dims 0., Array.make dims 1.)
          else
            Op_update_box
              (row, w.Workloads.Range_filter.lo.(src),
               w.Workloads.Range_filter.hi.(src))
        else
          let off = Rng.int rng (n_pool_q - q + 1) in
          Op_query_boxes (Array.sub w.Workloads.Range_filter.queries off q))
  in
  let replay ~shards ~jobs ops =
    Parallel.run ~jobs @@ fun _ ->
    let store =
      Serve.Range_store.create ~shards ~q
        ~lo:w.Workloads.Range_filter.lo ~hi:w.Workloads.Range_filter.hi ()
    in
    List.filter_map
      (function
        | Op_update_box (row, lo, hi) ->
            Serve.Range_store.update_box store ~row ~lo ~hi;
            None
        | Op_query_boxes rows -> Some (Serve.Range_store.query store rows))
      ops
  in
  let shards = min o.shards boxes in
  Printf.printf
    "stress_serve --mutate: %d range schedules x %d ops, shards %d vs 1, \
     jobs %d vs 1\n%!"
    o.schedules (o.requests * 8) shards o.jobs;
  let mismatches = ref 0 in
  for schedule = 0 to o.schedules - 1 do
    let ops = gen_schedule schedule in
    let reference = replay ~shards:1 ~jobs:1 ops in
    let got = replay ~shards ~jobs:o.jobs ops in
    List.iteri
      (fun i ((r : Serve.Range_store.result), (g : Serve.Range_store.result))
         ->
        if
          not
            (rows_bits_equal r.values g.values
            && int_rows_equal r.indices g.indices
            && r.matches = g.matches)
        then begin
          incr mismatches;
          Printf.printf
            "MISMATCH range schedule %d query %d: sharded result diverges \
             from the single-shard reference\n%!"
            schedule i
        end)
      (List.combine reference got)
  done;
  !mismatches

let mutate_gate o =
  let q = 4 and d = 64 and k = 3 and capacity = 96 and initial = 64 in
  let pool =
    Workloads.Hdc.synthetic ~seed:o.seed ~noise:0.2 ~dims:d
      ~n_classes:initial ~n_queries:32 ~bits:1 ()
  in
  let n_pool_q = Array.length pool.Workloads.Hdc.queries in
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  (* One schedule of interleaved ops. External ids are assigned
     monotonically by the store, so the generator predicts them without
     one and every op is valid by construction. Insert rows are drawn
     from the same pool as the initial rows: duplicate contents force
     distance ties, which both replays must break identically (by
     external id). *)
  let gen_schedule schedule =
    let rng = Rng.create (o.seed + (104729 * (schedule + 1))) in
    let live = ref (List.init initial Fun.id) in
    let n_live = ref initial and next = ref initial in
    let pick_live () = List.nth !live (Rng.int rng !n_live) in
    let a_row () = pool.Workloads.Hdc.stored.(Rng.int rng initial) in
    List.init (o.requests * 8) (fun _ ->
        let r = Rng.int rng 100 in
        if r < 50 then
          let off = Rng.int rng (n_pool_q - q + 1) in
          Op_query (Array.sub pool.Workloads.Hdc.queries off q)
        else if r < 70 && !n_live < capacity then begin
          let id = !next in
          incr next;
          live := id :: !live;
          incr n_live;
          Op_insert (a_row (), id)
        end
        else if r < 85 && !n_live > k + 1 then begin
          let id = pick_live () in
          live := List.filter (fun x -> x <> id) !live;
          decr n_live;
          Op_delete id
        end
        else Op_update (pick_live (), a_row ()))
  in
  let replay ~shards ~jobs ops =
    Parallel.run ~jobs @@ fun _ ->
    let store =
      Serve.Sharded_store.create ~spec ~q ~d ~k ~shards ~capacity ()
    in
    Array.iteri
      (fun i row ->
        if i < initial then ignore (Serve.Sharded_store.insert store row))
      pool.Workloads.Hdc.stored;
    List.filter_map
      (function
        | Op_insert (row, expect) ->
            let id = Serve.Sharded_store.insert store row in
            if id <> expect then
              failwith
                (Printf.sprintf
                   "stress_serve --mutate: insert assigned id %d, \
                    generator expected %d"
                   id expect);
            None
        | Op_delete id ->
            Serve.Sharded_store.delete store id;
            None
        | Op_update (id, row) ->
            Serve.Sharded_store.update store id row;
            None
        | Op_query rows ->
            let r = Serve.Sharded_store.query store rows in
            Some
              ( r.Serve.Sharded_store.values,
                r.Serve.Sharded_store.indices ))
      ops
  in
  Printf.printf
    "stress_serve --mutate: %d schedules x %d ops, shards %d vs 1, jobs %d \
     vs 1, seed %d\n%!"
    o.schedules (o.requests * 8) o.shards o.jobs o.seed;
  let mismatches = ref 0 and queries = ref 0 in
  for schedule = 0 to o.schedules - 1 do
    let ops = gen_schedule schedule in
    let reference = replay ~shards:1 ~jobs:1 ops in
    let got = replay ~shards:o.shards ~jobs:o.jobs ops in
    List.iteri
      (fun i ((rv, ri), (gv, gi)) ->
        queries := !queries + Array.length rv;
        if not (rows_bits_equal rv gv && int_rows_equal ri gi) then begin
          incr mismatches;
          Printf.printf
            "MISMATCH schedule %d query %d: sharded result diverges from \
             the single-shard reference\n%!"
            schedule i
        end)
      (List.combine reference got)
  done;
  let mismatches = !mismatches + range_gate o in
  if mismatches > 0 then begin
    Printf.eprintf
      "stress_serve: %d query result(s) diverged from the single-shard \
       reference\n"
      mismatches;
    exit 1
  end
  else
    Printf.printf
      "all %d sharded-store query rows and every range-store batch \
       byte-identical to the single-shard sequential reference\n"
      !queries

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  if
    o.clients < 1 || o.schedules < 1 || o.requests < 1 || o.jobs < 1
    || o.shards < 1 || (o.tcp && o.mutate)
  then usage ();
  if o.mutate then begin
    mutate_gate o;
    exit 0
  end;
  let q = 4 and dims = 64 and classes = 10 in
  let pool_rows = 32 in
  let data =
    Workloads.Hdc.synthetic ~seed:11 ~noise:0.15 ~dims ~n_classes:classes
      ~n_queries:pool_rows ~bits:1 ()
  in
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  Printf.printf
    "stress_serve: %d %sclients x %d requests, %d schedules, jobs %d, \
     seed %d\n%!"
    o.clients
    (if o.tcp then "TCP " else "")
    o.requests o.schedules o.jobs o.seed;
  (* fixed per-client request streams: sizes straddle the arity *)
  let streams =
    Array.init o.clients (fun c ->
        let rng = Rng.create (o.seed + (7919 * (c + 1))) in
        Array.init o.requests (fun _ ->
            let len = 1 + Rng.int rng (2 * q) in
            let off = Rng.int rng (pool_rows - len) in
            Array.sub data.queries off len))
  in
  (* the sequential reference, once: each request run alone *)
  let reference =
    Parallel.run ~jobs:1 @@ fun _ ->
    let session =
      Serve.Session.create ~spec ~stored:data.stored src
    in
    Array.map
      (Array.map (fun rows ->
           let r = Serve.Session.query session rows in
           (r.C4cam.Driver.values, r.C4cam.Driver.indices)))
      streams
  in
  let request_text rows =
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun row ->
              String.concat " "
                (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
            rows))
  in
  let wire_reference =
    Array.map
      (Array.map (fun (values, indices) ->
           Tcp.format_response
             {
               Server.r_values = values;
               r_indices = indices;
               r_scores = None;
               r_batch_seq = 0;
               r_latency_s = 0.;
             }))
      reference
  in
  let mismatches = ref 0 in
  let total_batches = ref 0 and total_rows = ref 0 and max_hwm = ref 0 in
  for schedule = 0 to o.schedules - 1 do
    let session =
      Serve.Session.create ~spec ~stored:data.stored src
    in
    let server =
      Server.create
        ~config:
          {
            Server.default_config with
            jobs = o.jobs;
            queue_cap = 64;
            (* odd schedules run a 200us batching window so coalescing
               under timed dispatch is covered too *)
            window_s = (if schedule land 1 = 1 then 2e-4 else 0.);
          }
        session
    in
    let listener = if o.tcp then Some (Tcp.listen ~port:0 server) else None in
    (* one client's rpc: does the response to request [i] match? *)
    let local c =
      let client = Server.connect server in
      fun i rows ->
        let r = Server.rpc client rows in
        let want_values, want_indices = reference.(c).(i) in
        rows_bits_equal want_values r.Server.r_values
        && int_rows_equal want_indices r.Server.r_indices
    in
    let fds = ref [] in
    let wire l c =
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port l));
      fds := fd :: !fds;
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      fun i rows ->
        output_string oc (request_text rows);
        output_char oc '\n';
        flush oc;
        input_line ic = wire_reference.(c).(i)
    in
    let rpcs =
      Array.init o.clients (fun c ->
          match listener with None -> local c | Some l -> wire l c)
    in
    let submitters =
      Array.mapi
        (fun c rpc ->
          Domain.spawn (fun () ->
              let rng =
                Rng.create (o.seed + (104729 * (schedule + 1)) + c)
              in
              Array.mapi
                (fun i rows ->
                  (* seeded arrival jitter, 0-2ms *)
                  let delay = Rng.int rng 3 in
                  if delay > 0 then
                    Unix.sleepf (float_of_int delay /. 1000.);
                  rpc i rows)
                streams.(c)))
        rpcs
    in
    let got = Array.map Domain.join submitters in
    List.iter Unix.close !fds;
    Option.iter Tcp.shutdown listener;
    Server.stop server;
    let st = Server.stats server in
    total_batches := !total_batches + st.Server.batches_coalesced;
    total_rows := !total_rows + st.Server.rows_served;
    if st.Server.queue_hwm > !max_hwm then max_hwm := st.Server.queue_hwm;
    Array.iteri
      (fun c matches ->
        Array.iteri
          (fun i ok ->
            if not ok then begin
              incr mismatches;
              Printf.printf
                "MISMATCH schedule %d client %d request %d: response \
                 diverges from the sequential reference\n%!"
                schedule c i
            end)
          matches)
      got
  done;
  let schedules_f = float_of_int o.schedules in
  Printf.printf
    "served %d requests over %d schedules: %.2f micro-batches/schedule, \
     fill %.2f queries/batch, queue high-water %d rows\n"
    (o.clients * o.requests * o.schedules)
    o.schedules
    (float_of_int !total_batches /. schedules_f)
    (float_of_int !total_rows /. float_of_int (max 1 !total_batches))
    !max_hwm;
  if !mismatches > 0 then begin
    Printf.eprintf
      "stress_serve: %d response(s) diverged from the sequential \
       reference\n"
      !mismatches;
    exit 1
  end
  else
    print_endline
      "all responses byte-identical to the sequential reference"
