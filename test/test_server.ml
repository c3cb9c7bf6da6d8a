(* The concurrent serving front-end: micro-batch demux against a
   sequential reference, round-robin fairness, backpressure in both
   modes, shutdown semantics, the TCP wire protocol, and a miniature
   of the CI concurrency-stress matrix (docs/SERVING.md). *)

module Session = Serve.Session
module Cache = Serve.Artifact_cache

let spec = Tutil.spec32

let hdc_data ~q ~dims ~classes ?(seed = 23) () =
  Workloads.Hdc.synthetic ~seed ~noise:0.15 ~dims ~n_classes:classes
    ~n_queries:q ~bits:1 ()

(* Each row of a request run alone, as a one-row batch: the reference
   every test compares server responses against, since a row's answer
   depends on nothing else in its micro-batch. *)
let reference session rows =
  let alone =
    Array.map
      (fun row ->
        let r = Session.query session [| row |] in
        (r.C4cam.Driver.values.(0), r.C4cam.Driver.indices.(0)))
      rows
  in
  (Array.map fst alone, Array.map snd alone)

let check_response what (want_values, want_indices)
    (r : Server.response) =
  Alcotest.(check Tutil.rows_testable) (what ^ ": values") want_values
    r.Server.r_values;
  Alcotest.(check Tutil.int_rows_testable) (what ^ ": indices")
    want_indices r.Server.r_indices

(* ---- demux vs the sequential reference ---------------------------------- *)

let test_demux () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:24 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let refs = Session.create ~spec ~stored:data.stored src in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          batch_rows = 8;
          queue_cap = 64;
          start_paused = true;
        }
      (Session.create ~spec ~stored:data.stored src)
  in
  let c1 = Server.connect server
  and c2 = Server.connect server
  and c3 = Server.connect server in
  (* request sizes straddle the arity: 1, 2, 5, 3, 4 rows *)
  let slice off len = Array.sub data.queries off len in
  let requests =
    [
      (c1, slice 0 1); (c1, slice 1 2); (c2, slice 3 5); (c3, slice 8 3);
      (c3, slice 11 4);
    ]
  in
  let tickets =
    List.map (fun (c, rows) -> (Server.submit c rows, rows)) requests
  in
  Server.resume server;
  List.iteri
    (fun i (tk, rows) ->
      check_response
        (Printf.sprintf "request %d" i)
        (reference refs rows) (Server.await tk))
    tickets;
  Server.drain server;
  Server.stop server;
  let st = Server.stats server in
  Alcotest.(check int) "rows served" 15 st.Server.rows_served;
  Alcotest.(check int) "requests served" 5 st.Server.requests_served;
  (* paused enqueue makes the coalescing deterministic: round-robin
     packs [c1#1 c2#1 c1#2] (8 rows), then [c3#1 c3#2] (7 rows: a full
     chunk and a 3-row tail, nothing padded) *)
  Alcotest.(check int) "micro-batches" 2 st.Server.batches_coalesced;
  Alcotest.(check int) "padding rows" 0 st.Server.rows_padded;
  Alcotest.(check int) "queue high-water" 15 st.Server.queue_hwm;
  Tutil.check_float ~eps:1e-9 "fill ratio" 7.5 st.Server.batch_fill;
  Alcotest.(check bool) "p99 >= p50 >= 0" true
    (st.Server.lat_p99_s >= st.Server.lat_p50_s
    && st.Server.lat_p50_s >= 0.)

(* The simulated charge of a server micro-batch in closed form: with
   the device setup already recorded, a micro-batch of m rows costs its
   q-row chunks plus one tail of m mod q rows, each at its own row
   count (Tutil.warm_chunk_cost), and nothing for rows it does not
   hold. The kernel has 2 x 2 tiles of 32 rows on the 32x32 base
   spec. *)
let test_micro_batch_ledger () =
  let q = 4 and dims = 64 and classes = 64 and k = 1 in
  let data = hdc_data ~q:16 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k in
  let session = Session.create ~spec ~stored:data.stored src in
  ignore (Session.query session (Array.sub data.queries 0 q));
  let before = Session.stats session in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          batch_rows = 8;
          queue_cap = 64;
          start_paused = true;
        }
      session
  in
  let c1 = Server.connect server
  and c2 = Server.connect server
  and c3 = Server.connect server in
  let slice off len = Array.sub data.queries off len in
  let tickets =
    List.map
      (fun (c, rows) -> Server.submit c rows)
      [
        (c1, slice 0 1); (c2, slice 1 5); (c1, slice 6 2); (c3, slice 8 3);
        (c3, slice 11 4);
      ]
  in
  Server.resume server;
  List.iter (fun tk -> ignore (Server.await tk)) tickets;
  Server.stop server;
  let st = Server.stats server in
  (* round-robin: [c1#1 c2#1 c1#2] (8 rows), then [c3#1 c3#2] (7) *)
  Alcotest.(check int) "micro-batches" 2 st.Server.batches_coalesced;
  let latency, energy =
    List.fold_left
      (fun (l, e) r ->
        let l', e' =
          Tutil.warm_chunk_cost ~spec ~tiles:4 ~tile_rows:32 ~n:classes ~k r
        in
        (l +. l', e +. e'))
      (0., 0.)
      (Tutil.chunk_sizes ~q 8 @ Tutil.chunk_sizes ~q 7)
  in
  let after = st.Server.session in
  Tutil.check_float ~eps:1e-12 "latency"
    latency
    (after.Session.sim_latency_s -. before.Session.sim_latency_s);
  Tutil.check_float ~eps:1e-12 "energy" energy
    (after.Session.sim_energy_j -. before.Session.sim_energy_j)

(* ---- failure isolation and the latency window --------------------------- *)

(* A backend that refuses any batch holding a row whose first value is
   the sentinel: the failing client's request fails, the request that
   shared its micro-batch gets its solo reply. *)
let test_failure_isolation () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let refs = Session.create ~spec ~stored:data.stored src in
  let sentinel = 12345. in
  let backend =
    let b = Serve.Backend.of_session (Session.create ~spec ~stored:data.stored src) in
    {
      b with
      Serve.Backend.query =
        (fun rows ->
          if Array.exists (fun r -> r.(0) = sentinel) rows then
            failwith "sentinel row"
          else b.Serve.Backend.query rows);
    }
  in
  let server =
    Server.create_on
      ~config:{ Server.default_config with start_paused = true }
      backend
  in
  let good = Server.connect server and bad = Server.connect server in
  let good_rows = Array.sub data.queries 0 3 in
  let bad_rows =
    [| Array.mapi (fun j x -> if j = 0 then sentinel else x) data.queries.(3) |]
  in
  let good_tk = Server.submit good good_rows in
  let bad_tk = Server.submit bad bad_rows in
  Server.resume server;
  let r = Server.await good_tk in
  check_response "co-batched request" (reference refs good_rows) r;
  Alcotest.(check int) "its micro-batch" 0 r.Server.r_batch_seq;
  (match Server.await bad_tk with
  | _ -> Alcotest.fail "the sentinel request was served"
  | exception Failure msg ->
      Alcotest.(check string) "the backend's failure" "sentinel row" msg);
  Server.stop server;
  let st = Server.stats server in
  Alcotest.(check int) "requests served" 1 st.Server.requests_served;
  Alcotest.(check int) "rows served" 3 st.Server.rows_served;
  Alcotest.(check int) "padding rows" 0 st.Server.rows_padded

let test_latency_window () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server = Server.create (Session.create ~spec ~stored:data.stored src) in
  let c = Server.connect server in
  let n = Server.latency_window + 300 in
  let lats =
    Array.init n (fun i ->
        (Server.rpc c [| data.queries.(i mod 8) |]).Server.r_latency_s)
  in
  Server.stop server;
  let st = Server.stats server in
  let window = Array.sub lats (n - 4096) 4096 in
  Array.sort compare window;
  let pct p =
    window.(max 0 (int_of_float (ceil (p *. 4096.)) - 1))
  in
  Alcotest.(check int) "window" 4096 Server.latency_window;
  Alcotest.(check int) "requests served" n st.Server.requests_served;
  Tutil.check_float ~eps:0. "p50 over the last 4096" (pct 0.50)
    st.Server.lat_p50_s;
  Tutil.check_float ~eps:0. "p99 over the last 4096" (pct 0.99)
    st.Server.lat_p99_s

(* ---- round-robin fairness ---------------------------------------------- *)

let test_fairness () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:16 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:
        { Server.default_config with queue_cap = 64; start_paused = true }
      (Session.create ~spec ~stored:data.stored src)
  in
  let heavy = Server.connect server and light = Server.connect server in
  let row i = [| data.queries.(i mod 16) |] in
  let heavy_tickets =
    List.init 12 (fun i -> Server.submit heavy (row i))
  in
  let light_ticket = Server.submit light (row 0) in
  Server.resume server;
  (* the single-query client rides the first micro-batch despite twelve
     queued requests ahead of it *)
  Alcotest.(check int) "light client in batch 0" 0
    (Server.await light_ticket).Server.r_batch_seq;
  let seqs =
    List.map (fun tk -> (Server.await tk).Server.r_batch_seq) heavy_tickets
  in
  Alcotest.(check bool) "per-client completion in submission order" true
    (List.sort compare seqs = seqs);
  Server.stop server;
  let st = Server.stats server in
  (* 13 rows at batch_rows = 4*q = 16: everything fits in one batch *)
  Alcotest.(check int) "one micro-batch" 1 st.Server.batches_coalesced;
  Alcotest.(check int) "nothing padded" 0 st.Server.rows_padded

(* A client that leaves drops out of the round-robin without costing
   anyone a turn. With one 4-row request per 4-row micro-batch, batch
   order is visit order: [a]'s batch runs while the cursor points at
   [b]; [a] leaves, and [b], [c], [d] are served in that order however
   their requests were queued. *)
let test_disconnect () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let entered = Semaphore.Binary.make false
  and release = Semaphore.Binary.make false in
  let backend =
    let b = Serve.Backend.of_session (Session.create ~spec ~stored:data.stored src) in
    let first = ref true in
    {
      b with
      Serve.Backend.query =
        (fun rows ->
          if !first then begin
            first := false;
            Semaphore.Binary.release entered;
            Semaphore.Binary.acquire release
          end;
          b.Serve.Backend.query rows);
    }
  in
  let server =
    Server.create_on
      ~config:{ Server.default_config with batch_rows = q; queue_cap = 64 }
      backend
  in
  let a = Server.connect server and b = Server.connect server in
  let c = Server.connect server and d = Server.connect server in
  let rows = Array.sub data.queries 0 q in
  let first = Server.submit a rows in
  Semaphore.Binary.acquire entered;
  (* [a]'s request is in flight, so its queue is empty *)
  Server.disconnect a;
  Server.disconnect a (* idempotent *);
  Alcotest.(check int) "live clients" 3
    (Server.stats server).Server.clients_connected;
  (match Server.submit a rows with
  | _ -> Alcotest.fail "a disconnected client submitted"
  | exception Server.Server_error _ -> ());
  let tickets = List.map (fun cl -> (cl, Server.submit cl rows)) [ d; c; b ] in
  (match Server.disconnect d with
  | () -> Alcotest.fail "disconnected a client with a queued request"
  | exception Server.Server_error _ -> ());
  Semaphore.Binary.release release;
  Alcotest.(check int) "a's batch" 0 (Server.await first).Server.r_batch_seq;
  let seq cl = (Server.await (List.assq cl tickets)).Server.r_batch_seq in
  Alcotest.(check (list int)) "b, c, d keep their turns" [ 1; 2; 3 ]
    [ seq b; seq c; seq d ];
  List.iter Server.disconnect [ b; c; d ];
  Alcotest.(check int) "no live clients" 0
    (Server.stats server).Server.clients_connected;
  let e = Server.connect server in
  ignore (Server.rpc e rows);
  Server.stop server

(* ---- backpressure ------------------------------------------------------ *)

let test_backpressure_fail_fast () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          queue_cap = 4;
          backpressure = `Fail_fast;
          start_paused = true;
        }
      (Session.create ~spec ~stored:data.stored src)
  in
  let c = Server.connect server in
  let row i = [| data.queries.(i mod 8) |] in
  let tickets = List.init 4 (fun i -> Server.submit c (row i)) in
  (match Server.submit c (row 4) with
  | _ -> Alcotest.fail "expected Overloaded at the queue cap"
  | exception Server.Overloaded -> ());
  Server.resume server;
  List.iter (fun tk -> ignore (Server.await tk)) tickets;
  (* room again once the queue drained *)
  ignore (Server.rpc c (row 4));
  Server.stop server;
  Alcotest.(check int) "five requests served" 5
    (Server.stats server).Server.requests_served

let test_backpressure_block () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:
        { Server.default_config with queue_cap = 4; start_paused = true }
      (Session.create ~spec ~stored:data.stored src)
  in
  let c = Server.connect server in
  let row i = [| data.queries.(i mod 8) |] in
  (* the queue holds 4 rows; the 10-request submitter must block until
     the scheduler makes room, so resume from here *)
  let submitter =
    Domain.spawn (fun () ->
        let tickets = List.init 10 (fun i -> Server.submit c (row i)) in
        List.map Server.await tickets)
  in
  Unix.sleepf 0.05;
  Server.resume server;
  let responses = Domain.join submitter in
  Alcotest.(check int) "all ten served" 10 (List.length responses);
  Server.stop server;
  Alcotest.(check int) "none dropped" 10
    (Server.stats server).Server.requests_served

(* A known workload with more rows than the queue cap, served through
   [Server.serve_all] (the path behind [c4cam serve --clients]): it
   must complete — pre-submitting every request to a paused server
   blocks forever once the rows exceed the cap — and its coalescing
   must repeat exactly. A watchdog turns a hang into a failure. *)
let test_serve_all_over_cap () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:24 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let refs = Session.create ~spec ~stored:data.stored src in
  (* 32 rows against a cap of 8, one request alone above it *)
  let requests =
    List.map
      (fun (off, len) -> Array.sub data.queries off len)
      [ (0, 4); (4, 3); (7, 5); (12, 12); (0, 2); (2, 6) ]
  in
  let config =
    { Server.default_config with batch_rows = 8; queue_cap = 8 }
  in
  let serve () =
    let session = Session.create ~spec ~stored:data.stored src in
    let done_ = Atomic.make None in
    let worker =
      Domain.spawn (fun () ->
          let _, responses =
            Server.serve_all ~config ~clients:2
              (Serve.Backend.of_session session)
              requests
          in
          Atomic.set done_ (Some responses))
    in
    let deadline = Unix.gettimeofday () +. 60. in
    let rec wait () =
      match Atomic.get done_ with
      | Some responses ->
          Domain.join worker;
          responses
      | None when Unix.gettimeofday () > deadline ->
          Alcotest.fail "serve_all hung on a workload above the queue cap"
      | None ->
          Unix.sleepf 0.005;
          wait ()
    in
    wait ()
  in
  let first = serve () in
  Alcotest.(check int) "every request answered" (List.length requests)
    (List.length first);
  List.iteri
    (fun i (rows, r) ->
      check_response
        (Printf.sprintf "request %d" i)
        (reference refs rows) r)
    (List.combine requests first);
  Alcotest.(check (list int)) "coalescing repeats exactly"
    (List.map (fun (r : Server.response) -> r.r_batch_seq) first)
    (List.map (fun (r : Server.response) -> r.r_batch_seq) (serve ()))

(* ---- shutdown ---------------------------------------------------------- *)

let test_stop () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:{ Server.default_config with start_paused = true }
      (Session.create ~spec ~stored:data.stored src)
  in
  let c = Server.connect server in
  let tickets =
    List.init 3 (fun i -> Server.submit c [| data.queries.(i) |])
  in
  (* stop drains even a paused server: queued work is served, not lost *)
  Server.stop server;
  List.iter (fun tk -> ignore (Server.await tk)) tickets;
  (match Server.submit c [| data.queries.(0) |] with
  | _ -> Alcotest.fail "expected Stopped"
  | exception Server.Stopped -> ());
  (match Server.connect server with
  | _ -> Alcotest.fail "expected Stopped"
  | exception Server.Stopped -> ());
  Server.stop server (* idempotent *)

(* ---- malformed requests ------------------------------------------------ *)

let test_bad_requests () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:{ Server.default_config with start_paused = true }
      (Session.create ~spec ~stored:data.stored src)
  in
  let c = Server.connect server in
  (* a good request queued ahead of the refused ones, so they would
     share its micro-batch if they were admitted *)
  let good = Array.sub data.queries 0 2 in
  let ticket = Server.submit c good in
  let rejects what rows =
    match Server.submit c rows with
    | _ -> Alcotest.failf "%s: expected Server_error" what
    | exception Server.Server_error _ -> ()
  in
  let with_cell v =
    let r = Array.copy data.queries.(2) in
    r.(5) <- v;
    r
  in
  rejects "empty request" [||];
  rejects "wrong width" [| Array.make (dims + 1) 0. |];
  rejects "short row" [| data.queries.(2); Array.make (dims - 1) 0. |];
  rejects "nan cell" [| data.queries.(2); with_cell Float.nan |];
  rejects "inf cell" [| with_cell Float.infinity |];
  rejects "-inf cell" [| with_cell Float.neg_infinity |];
  Server.resume server;
  let refs = Session.create ~spec ~stored:data.stored src in
  check_response "co-batched good request" (reference refs good)
    (Server.await ticket);
  ignore (Server.rpc c [| data.queries.(0) |]);
  Server.stop server

(* ---- the TCP front-end ------------------------------------------------- *)

let test_tcp () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      (Session.create ~spec ~stored:data.stored src)
  in
  let listener = Tcp.listen ~port:0 server in
  let port = Tcp.port listener in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  let row_text row =
    String.concat " "
      (Array.to_list (Array.map (Printf.sprintf "%.17g") row))
  in
  (* a 2-row request round-trips to exactly the in-process response *)
  let rows = Array.sub data.queries 0 2 in
  let local = Server.connect server in
  let want = Tcp.format_response (Server.rpc local rows) in
  let got =
    send (row_text rows.(0) ^ " ; " ^ row_text rows.(1))
  in
  Alcotest.(check string) "wire response matches in-process" want got;
  (* the codec round-trips its own output *)
  Alcotest.(check Tutil.rows_testable) "parse . format = id" rows
    (Tcp.parse_request (row_text rows.(0) ^ ";" ^ row_text rows.(1)));
  (* malformed lines answer err and keep the connection alive *)
  let e = send "1 2 nope" in
  Alcotest.(check bool) "parse error reported"
    true
    (String.length e >= 4 && String.sub e 0 4 = "err ");
  let e = send "1 2 3" in
  Alcotest.(check bool) "width error reported" true
    (String.length e >= 4 && String.sub e 0 4 = "err ");
  let nan_row = Array.copy rows.(0) in
  nan_row.(1) <- Float.nan;
  let e = send (row_text nan_row) in
  Alcotest.(check bool) "nan cell refused" true
    (String.length e >= 4 && String.sub e 0 4 = "err ");
  (* only decimal floats: every other spelling float_of_string takes
     is refused as a bad float, and the connection keeps serving *)
  List.iter
    (fun tok ->
      let cells = Array.map (Printf.sprintf "%.17g") rows.(0) in
      cells.(3) <- tok;
      Alcotest.(check string) (tok ^ " refused as a bad float")
        (Printf.sprintf "err request row 0: bad float %S" tok)
        (send (String.concat " " (Array.to_list cells)));
      Alcotest.(check string) ("serving after " ^ tok) want
        (send (row_text rows.(0) ^ " ; " ^ row_text rows.(1))))
    [ "0x1p3"; "1_000"; "_1"; "nan"; "infinity"; "1e999"; "."; "1e"; "+" ];
  Alcotest.(check Tutil.rows_testable) "decimal spellings accepted"
    [| [| 0.5; 5.; -100.; 0.3; 7. |] |]
    (Tcp.parse_request " .5 5. -1E+2\t+3e-1 007");
  let got2 = send (row_text rows.(0) ^ " ; " ^ row_text rows.(1)) in
  Alcotest.(check string) "still serving after errors" want got2;
  Unix.close sock;
  Tcp.shutdown listener;
  Tcp.shutdown listener (* idempotent *);
  Alcotest.(check int) "one connection accepted" 1
    (Tcp.connections_served listener);
  Server.stop server

(* A connection that ends gives its fd number back to the kernel, and
   the next socket the process opens may get it. [shutdown] must touch
   only live connections: a socketpair opened on the freed numbers keeps
   passing bytes across it. *)
let test_tcp_recycled_fds () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server = Server.create (Session.create ~spec ~stored:data.stored src) in
  let listener = Tcp.listen ~port:0 server in
  let buf = Bytes.create 16 in
  for _ = 1 to 3 do
    let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect sock
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port listener));
    (* half-close, then read to the end: the server has closed its side *)
    Unix.shutdown sock Unix.SHUTDOWN_SEND;
    while Unix.read sock buf 0 16 > 0 do
      ()
    done;
    Unix.close sock
  done;
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Tcp.shutdown listener;
  let pass src dst =
    try
      Unix.write_substring src "x" 0 1 = 1
      && Unix.read dst buf 0 1 = 1
      && Bytes.get buf 0 = 'x'
    with Unix.Unix_error _ -> false
  in
  Alcotest.(check bool) "a -> b after shutdown" true (pass a b);
  Alcotest.(check bool) "b -> a after shutdown" true (pass b a);
  Unix.close a;
  Unix.close b;
  Alcotest.(check int) "three connections accepted" 3
    (Tcp.connections_served listener);
  Server.stop server

(* 200 connections one after another to one listener, more than the
   runtime's ~128 domains: each connection's domain must be given back
   when it ends. Each sends a request, reads the reply, half-closes and
   waits for the server's EOF before the next one opens, so at most one
   is open at a time. *)
let test_tcp_connection_cleanup () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server = Server.create (Session.create ~spec ~stored:data.stored src) in
  let listener = Tcp.listen ~port:0 server in
  let n = 200 in
  let local = Server.connect server in
  let wants =
    Array.map
      (fun row -> Tcp.format_response (Server.rpc local [| row |]))
      data.queries
  in
  let replies_ok = ref 0 in
  for i = 0 to n - 1 do
    let row = data.queries.(i mod 8) and want = wants.(i mod 8) in
    let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect sock
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port listener));
    (* a connection the server never closes fails the read, not the run *)
    Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.;
    let ic = Unix.in_channel_of_descr sock
    and oc = Unix.out_channel_of_descr sock in
    output_string oc
      (String.concat " "
         (Array.to_list (Array.map (Printf.sprintf "%.17g") row)));
    output_char oc '\n';
    flush oc;
    if input_line ic = want then incr replies_ok;
    Unix.shutdown sock Unix.SHUTDOWN_SEND;
    (match input_char ic with
    | _ -> Alcotest.failf "connection %d: bytes after the reply" i
    | exception End_of_file -> ()
    | exception (Sys_error _ | Sys_blocked_io) ->
        Alcotest.failf "connection %d: no EOF from the server" i);
    Unix.close sock
  done;
  Tcp.shutdown listener;
  Alcotest.(check int) "every connection answered correctly" n !replies_ok;
  Alcotest.(check int) "connections accepted" n
    (Tcp.connections_served listener);
  Alcotest.(check int) "only the local client is left" 1
    (Server.stats server).Server.clients_connected;
  Server.stop server

(* A connection to a stopped server: [Server.connect] refuses it, so the
   connection is closed at once and still counted. Twice, then the
   listener shuts down. *)
let test_tcp_stopped_server () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server = Server.create (Session.create ~spec ~stored:data.stored src) in
  let listener = Tcp.listen ~port:0 server in
  Server.stop server;
  for i = 1 to 2 do
    let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect sock
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port listener));
    Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.;
    let ic = Unix.in_channel_of_descr sock in
    (match input_char ic with
    | _ -> Alcotest.failf "connection %d: bytes from a stopped server" i
    | exception End_of_file -> ()
    | exception (Sys_error _ | Sys_blocked_io) ->
        Alcotest.failf "connection %d: no EOF from a stopped server" i);
    Unix.close sock;
    Alcotest.(check int)
      (Printf.sprintf "connection %d counted" i)
      i
      (Tcp.connections_served listener)
  done;
  Tcp.shutdown listener

(* The per-connection reader over a real socket, at [queue_cap = 4] and
   [d = 32]: a request holds at most 4 rows and 4 * 32 * 64 = 8192
   bytes. A line past either cap is answered with an error and the
   connection keeps serving; blank lines get no reply; a line that
   arrives in pieces is the same line; a last line without its newline
   is still served. *)
let test_tcp_bounded_reader () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:{ Server.default_config with queue_cap = 4 }
      (Session.create ~spec ~stored:data.stored src)
  in
  let listener = Tcp.listen ~port:0 server in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port listener));
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.;
  let ic = Unix.in_channel_of_descr sock in
  let write s =
    let n = String.length s in
    let rec go i = if i < n then go (i + Unix.write_substring sock s i (n - i)) in
    go 0
  in
  let send line =
    write (line ^ "\n");
    input_line ic
  in
  let row_text row =
    String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.17g") row))
  in
  let request rows = String.concat ";" (Array.to_list (Array.map row_text rows)) in
  let local = Server.connect server in
  let want rows = Tcp.format_response (Server.rpc local rows) in
  let one = Array.sub data.queries 0 1 and four = Array.sub data.queries 0 4 in
  let cap = 4 * dims * 64 in
  let padded n = request one ^ String.make (n - String.length (request one)) ' ' in
  Alcotest.(check string) "a line of exactly the cap is served" (want one)
    (send (padded cap));
  Alcotest.(check string) "one byte past the cap"
    (Printf.sprintf "err request line exceeds %d bytes" cap)
    (send (padded (cap + 1)));
  Alcotest.(check string) "serving after the long line" (want one)
    (send (request one));
  Alcotest.(check string) "a line far past the cap"
    (Printf.sprintf "err request line exceeds %d bytes" cap)
    (send (padded (5 * cap)));
  Alcotest.(check string) "queue_cap rows are served" (want four)
    (send (request four));
  Alcotest.(check string) "queue_cap + 1 rows are refused"
    "err request line exceeds 4 rows"
    (send (request (Array.sub data.queries 0 5)));
  write " \t \n\n\r\n";
  Alcotest.(check string) "blank lines get no reply" (want four)
    (send (request four));
  let line = request four ^ "\n" in
  let n = String.length line in
  List.iter
    (fun (i, j) ->
      write (String.sub line i (j - i));
      Unix.sleepf 0.002)
    [ (0, 1); (1, 7); (7, n / 2); (n / 2, n - 1); (n - 1, n) ];
  Alcotest.(check string) "a line in pieces" (want four) (input_line ic);
  write (request one);
  Unix.shutdown sock Unix.SHUTDOWN_SEND;
  Alcotest.(check string) "a last line without its newline" (want one)
    (input_line ic);
  Unix.close sock;
  Tcp.shutdown listener;
  Server.stop server

(* The split-based parser the scanner replaced, kept as an independent
   oracle: it shares no code with [Tcp.parse_request]. *)
module Split_parser = struct
  let decimal_float f =
    let n = String.length f in
    let digits i =
      let j = ref i in
      while !j < n && f.[!j] >= '0' && f.[!j] <= '9' do
        incr j
      done;
      !j
    in
    let sign i = if i < n && (f.[i] = '+' || f.[i] = '-') then i + 1 else i in
    let i = sign 0 in
    let j = digits i in
    let k = if j < n && f.[j] = '.' then digits (j + 1) else j in
    (* [k - i] counts the point too, so a lone point has length 1 *)
    let mantissa = k - i > (if k > j then 1 else 0) in
    let e =
      if k < n && (f.[k] = 'e' || f.[k] = 'E') then
        let a = sign (k + 1) in
        let b = digits a in
        if b > a then b else k
      else k
    in
    if mantissa && e = n then
      match float_of_string_opt f with
      | Some v when Float.is_finite v -> Some v
      | _ -> None
    else None

  let parse_request line =
    let parse_row i s =
      let fields =
        String.split_on_char ' ' s
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun f -> f <> "")
      in
      if fields = [] then Server.fail "request row %d is empty" i;
      Array.of_list
        (List.map
           (fun f ->
             match decimal_float f with
             | Some v -> v
             | None -> Server.fail "request row %d: bad float %S" i f)
           fields)
    in
    let rows = String.split_on_char ';' line in
    if List.for_all (fun r -> String.trim r = "") rows then
      Server.fail "empty request";
    Array.of_list (List.mapi parse_row rows)
end

(* Lines of valid and malformed tokens between spaces, tabs and [;]:
   round-trip spellings, significands of 15 to 20 digits around 2^53,
   exponents at the fast path's edge (+-22) and just past it, and every
   spelling the decimal grammar refuses. *)
let request_line =
  let fixed =
    [|
      "0"; "1"; "-0"; "+0"; "007"; ".5"; "5."; "-.5"; "+5."; "1e22"; "1e23";
      "1e-22"; "1e-23"; "9e22"; "9e-23"; "123456789e-22"; "4.5e+23";
      "1e-400"; "1e999"; "-1e308"; "2e308"; "4.9e-324"; "2.5e-324";
      "9007199254740991"; "9007199254740992"; "9007199254740993";
      "9007199254740995"; "18014398509481985"; "0.1"; "0.3";
      "0.30000000000000004"; "1E5"; "1e+0"; "0e999"; "0x1p3"; "1_0"; "_1";
      "nan"; "NaN"; "inf"; "infinity"; "-infinity"; "."; "-"; "+"; "e5";
      "1e"; "1e+"; "1.5x"; "1..5"; "1e5.5"; "--1"; "\r"; "\012"; "x";
    |]
  in
  let gen st =
    let digits n =
      String.init n (fun _ -> Char.chr (48 + Random.State.int st 10))
    in
    let token () =
      match Random.State.int st 5 with
      | 0 -> fixed.(Random.State.int st (Array.length fixed))
      | 1 ->
          let x =
            Random.State.float st 2. -. 1.
            *. (10. ** float_of_int (Random.State.int st 40 - 20))
          in
          Printf.sprintf "%.17g" x
      | 2 ->
          (* 15 to 20 digits, the point anywhere or nowhere *)
          let d = digits (15 + Random.State.int st 6) in
          let p = Random.State.int st (String.length d + 2) in
          if p > String.length d then d
          else String.sub d 0 p ^ "." ^ String.sub d p (String.length d - p)
      | 3 ->
          Printf.sprintf "%s%se%d"
            (if Random.State.bool st then "-" else "")
            (digits (1 + Random.State.int st 17))
            (Random.State.int st 51 - 25)
      | _ -> string_of_int (Random.State.int st 2)
    in
    let sep () =
      match Random.State.int st 8 with
      | 0 -> "\t"
      | 1 -> ";"
      | 2 -> " ; "
      | 3 -> "  "
      | 4 -> " \t"
      | _ -> " "
    in
    let b = Buffer.create 64 in
    for _ = 0 to Random.State.int st 12 do
      if Random.State.int st 6 > 0 then Buffer.add_string b (token ());
      Buffer.add_string b (sep ())
    done;
    if Random.State.bool st then Buffer.add_string b (token ());
    Buffer.contents b
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let prop_scanner_matches_split_parser =
  let outcome parse line =
    match parse line with
    | rows ->
        Ok (Array.map (Array.map Int64.bits_of_float) rows)
    | exception Server.Server_error msg -> Error msg
  in
  QCheck.Test.make ~count:3000
    ~name:"scanner = split parser, bit for bit and error for error"
    request_line
    (fun line ->
      outcome Tcp.parse_request line = outcome Split_parser.parse_request line)

(* The codec allocates its result and nothing per field: a 1,024-field
   row, the perfbench tcp-hdc shape, costs the row's own words (a float
   array that large is allocated directly in the major heap) and a few
   for the spine. *)
let test_parse_allocation () =
  let d = 1024 in
  let rng = Rng.create 5 in
  let line sep f = String.concat sep (List.init d (fun _ -> f ())) in
  let lines =
    [
      ("0/1 fields", line " " (fun () -> string_of_int (Rng.int rng 2)));
      ( "%.4f fields",
        line "\t" (fun () ->
            let x = float_of_int (Rng.int rng 20000 - 10000) /. 997. in
            Printf.sprintf "%.4f" x) );
    ]
  in
  List.iter
    (fun (what, line) ->
      ignore (Tcp.parse_request line);
      let _, _, major0 = Gc.counters () in
      let minor0 = Gc.minor_words () in
      let rows = Tcp.parse_request line in
      let minor = Gc.minor_words () -. minor0 in
      let _, _, major1 = Gc.counters () in
      Alcotest.(check int) (what ^ ": one row") d (Array.length rows.(0));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words <= d + 64" what minor)
        true
        (minor <= float_of_int (d + 64));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words in all <= d + 64" what (minor +. major1 -. major0))
        true
        (minor +. major1 -. major0 <= float_of_int (d + 64)))
    lines

(* Only the declared [Server_error] may escape the wire parser, whatever
   bytes a valid request line is mutated or truncated into. *)
let prop_mutated_requests_refused_cleanly =
  let seeds =
    [
      "1 0 1 0; 0 1 1 0";
      " .5 5. -1E+2\t+3e-1 007";
      "0.25 0.125;1e-3 -7;+2.5e+10 3";
      String.concat " " (List.init 32 (fun i -> string_of_int (i mod 2)));
    ]
  in
  List.iter (fun s -> ignore (Tcp.parse_request s)) seeds;
  QCheck.Test.make ~count:1000 ~name:"mutated requests raise only Server_error"
    (Tutil.mutant seeds)
    (fun line ->
      match Tcp.parse_request line with
      | _ -> true
      | exception Server.Server_error _ -> true)

(* ---- the stress matrix in miniature ------------------------------------ *)

(* Concurrent submitter domains against the sequential reference,
   across the jobs values the CI stress job runs at scale: every
   client's results must be byte-identical to its own requests served
   one at a time through a private session. *)
let test_mini_stress () =
  let q = 4 and dims = 32 and classes = 8 in
  let n_clients = 3 and n_requests = 5 in
  let data = hdc_data ~q:32 ~dims ~classes () in
  let src = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "jobs %d" jobs in
      (* fixed per-client request streams (seeded sizes/offsets) *)
      let streams =
        Array.init n_clients (fun c ->
            let rng = Rng.create (7919 * (c + 1)) in
            Array.init n_requests (fun _ ->
                let len = 1 + Rng.int rng 6 in
                let off = Rng.int rng (32 - len) in
                Array.sub data.queries off len))
      in
      let refs = Session.create ~spec ~stored:data.stored src in
      let want =
        Array.map (Array.map (reference refs)) streams
      in
      let server =
        Server.create
          ~config:
            { Server.default_config with jobs; queue_cap = 64 }
          (Session.create ~spec ~stored:data.stored src)
      in
      let clients =
        Array.init n_clients (fun _ -> Server.connect server)
      in
      let submitters =
        Array.mapi
          (fun c client ->
            Domain.spawn (fun () ->
                let rng = Rng.create (104729 * (c + 1)) in
                Array.map
                  (fun rows ->
                    if Rng.int rng 3 = 0 then
                      Unix.sleepf (float_of_int (Rng.int rng 3) /. 1000.);
                    Server.rpc client rows)
                  streams.(c)))
          clients
      in
      let got = Array.map Domain.join submitters in
      Server.stop server;
      Array.iteri
        (fun c responses ->
          Array.iteri
            (fun i r ->
              check_response
                (Printf.sprintf "%s client %d request %d" what c i)
                want.(c).(i) r)
            responses)
        got)
    [ 1; 4 ]

let () =
  Alcotest.run "server"
    [
      ( "scheduler",
        [
          Alcotest.test_case "demux vs sequential reference" `Quick
            test_demux;
          Alcotest.test_case "micro-batch ledger in closed form" `Quick
            test_micro_batch_ledger;
          Alcotest.test_case "round-robin fairness" `Quick test_fairness;
          Alcotest.test_case "disconnect keeps the turns" `Quick
            test_disconnect;
          Alcotest.test_case "fail-fast backpressure" `Quick
            test_backpressure_fail_fast;
          Alcotest.test_case "blocking backpressure" `Quick
            test_backpressure_block;
          Alcotest.test_case "stop drains and rejects" `Quick test_stop;
          Alcotest.test_case "malformed requests" `Quick test_bad_requests;
          Alcotest.test_case "serve_all above the queue cap" `Quick
            test_serve_all_over_cap;
          Alcotest.test_case "one failure fails one request" `Quick
            test_failure_isolation;
          Alcotest.test_case "latency window" `Quick test_latency_window;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "wire round-trip" `Quick test_tcp;
          Alcotest.test_case "shutdown spares recycled fds" `Quick
            test_tcp_recycled_fds;
          Alcotest.test_case "200 connections in turn" `Quick
            test_tcp_connection_cleanup;
          Alcotest.test_case "bounded reader" `Quick test_tcp_bounded_reader;
          Alcotest.test_case "stopped server closes" `Quick
            test_tcp_stopped_server;
          QCheck_alcotest.to_alcotest prop_mutated_requests_refused_cleanly;
          QCheck_alcotest.to_alcotest prop_scanner_matches_split_parser;
          Alcotest.test_case "parse allocates the rows only" `Quick
            test_parse_allocation;
        ] );
      ( "stress",
        [
          Alcotest.test_case "mini concurrency matrix" `Quick
            test_mini_stress;
        ] );
    ]
