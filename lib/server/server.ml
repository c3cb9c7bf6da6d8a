(* The concurrent serving loop (see server.mli and docs/SERVING.md).

   One mutex guards all scheduler/client shared state. The scheduler
   domain owns the session and the simulator; clients only touch their
   queues and tickets. Three condition variables:
   - [cv_submit] wakes the scheduler (new work, resume, stop),
   - [cv_room] wakes submitters blocked on the queue cap,
   - [cv_done] wakes awaiters and drainers (batch served, shutdown).

   Micro-batch assembly is round-robin over clients with pending
   requests, one whole request per client per turn, until the batch is
   full or the queues are empty. Demux is by row offset, so which batch
   a request lands in is unobservable in its results — that is the
   whole determinism story (rows are independent on the simulator). *)

exception Server_error of string
exception Overloaded
exception Stopped

let fail fmt = Printf.ksprintf (fun s -> raise (Server_error s)) fmt

type backpressure = [ `Block | `Fail_fast ]

type config = {
  batch_rows : int;
  window_s : float;
  queue_cap : int;
  backpressure : backpressure;
  jobs : int;
  start_paused : bool;
}

let default_config =
  {
    batch_rows = 0 (* resolved to 4 * q at create *);
    window_s = 0.;
    queue_cap = 256;
    backpressure = `Block;
    jobs = 1;
    start_paused = false;
  }

type response = {
  r_values : float array array;
  r_indices : int array array;
  r_scores : float array array option;
  r_batch_seq : int;
  r_latency_s : float;
}

type req_state = Pending | Served of response | Failed of exn

type request = {
  rq_rows : float array array;
  rq_submitted_at : float;
  mutable rq_state : req_state;
}

type client = {
  c_server : t;
  c_queue : request Queue.t;
  mutable c_gone : bool;  (* disconnected *)
}

and t = {
  s_backend : Serve.Backend.t;
  s_cfg : config;
  s_d : int;  (* kernel row width *)
  m : Mutex.t;
  cv_submit : Condition.t;
  cv_room : Condition.t;
  cv_done : Condition.t;
  mutable clients : client array;
      (* live clients in [0, n_clients), in registration order *)
  mutable n_clients : int;
  mutable cursor : int;  (* round-robin position *)
  mutable queued_rows : int;
  mutable in_flight : bool;  (* a batch is executing off-lock *)
  mutable paused : bool;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable scheduler : unit Domain.t option;
  (* metrics (all under [m]) *)
  mutable n_batches : int;
  mutable rows_served : int;
  mutable requests_served : int;
  mutable queue_hwm : int;
  latencies : float array;
      (* ring of the last [latency_window] request latencies *)
  mutable n_latencies : int;  (* latencies ever recorded *)
}

type ticket = { tk_server : t; tk_request : request }

type stats = {
  batches_coalesced : int;
  rows_served : int;
  rows_padded : int;
  requests_served : int;
  clients_connected : int;
  batch_fill : float;
  queue_hwm : int;
  lat_p50_s : float;
  lat_p99_s : float;
  session : Serve.Session.stats;
}

(* ---- metrics ---------------------------------------------------------- *)

let latency_window = 4096

let record_latency t lat =
  t.latencies.(t.n_latencies mod latency_window) <- lat;
  t.n_latencies <- t.n_latencies + 1

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(min (n - 1)
              (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let stats_locked t =
  let lats = Array.sub t.latencies 0 (min t.n_latencies latency_window) in
  Array.sort compare lats;
  {
    batches_coalesced = t.n_batches;
    rows_served = t.rows_served;
    rows_padded = 0;
    requests_served = t.requests_served;
    clients_connected = t.n_clients;
    batch_fill =
      (if t.n_batches > 0 then
         float_of_int t.rows_served /. float_of_int t.n_batches
       else 0.);
    queue_hwm = t.queue_hwm;
    lat_p50_s = percentile lats 0.50;
    lat_p99_s = percentile lats 0.99;
    session = t.s_backend.Serve.Backend.stats ();
  }

let stats t = Mutex.protect t.m (fun () -> stats_locked t)

(* The stats snapshot sorts the latency window: taken only when a
   collector will read it. *)
let fold_profile t =
  match t.s_backend.Serve.Backend.run_config.C4cam.Driver.Run_config.profile with
  | None -> ()
  | Some collector ->
      let st = stats t in
      (* the backend's section carries the session/store fields (and
         folds the simulator section); the scheduler overlays its own *)
      let base = t.s_backend.Serve.Backend.serve_section () in
      Instrument.Collect.set_serve collector
        {
          base with
          Instrument.Profile.batches_coalesced = st.batches_coalesced;
          batch_fill = st.batch_fill;
          queue_hwm = st.queue_hwm;
          lat_p50_s = st.lat_p50_s;
          lat_p99_s = st.lat_p99_s;
        }

(* ---- micro-batch assembly --------------------------------------------- *)

let has_pending t = t.queued_rows > 0

(* Assemble one micro-batch round-robin, popping whole requests.
   Caller holds the lock. Returns requests in batch order. *)
let assemble t =
  let taken = ref [] and used = ref 0 in
  let progress = ref true in
  while !progress && !used < t.s_cfg.batch_rows && has_pending t do
    progress := false;
    let n = t.n_clients in
    let scanned = ref 0 in
    while !scanned < n && !used < t.s_cfg.batch_rows do
      let c = t.clients.(t.cursor mod n) in
      (match Queue.peek_opt c.c_queue with
      | Some rq
        when !used = 0
             || !used + Array.length rq.rq_rows <= t.s_cfg.batch_rows ->
          (* an oversized request is admitted alone — it must make
             progress even though it exceeds the capacity *)
          ignore (Queue.pop c.c_queue);
          t.queued_rows <- t.queued_rows - Array.length rq.rq_rows;
          used := !used + Array.length rq.rq_rows;
          taken := rq :: !taken;
          progress := true
      | _ -> ());
      t.cursor <- (t.cursor + 1) mod n;
      incr scanned
    done
  done;
  List.rev !taken

(* ---- the scheduler domain --------------------------------------------- *)

(* One backend call over [requests] (lock NOT held). *)
let call t requests =
  let rows =
    match requests with
    | [ rq ] -> rq.rq_rows
    | _ -> Array.concat (List.map (fun rq -> rq.rq_rows) requests)
  in
  match t.s_backend.Serve.Backend.query rows with
  | r -> Ok (r, Array.length rows)
  | exception e -> Error e

(* Resolve the tickets of one backend call. Caller holds the lock. *)
let resolve t batch_seq finished_at requests outcome =
  match outcome with
  | Ok ((r : Serve.Backend.reply), n_rows) ->
      let offset = ref 0 in
      List.iter
        (fun rq ->
          let n = Array.length rq.rq_rows in
          let slice a = Array.sub a !offset n in
          let latency = Float.max 0. (finished_at -. rq.rq_submitted_at) in
          rq.rq_state <-
            Served
              {
                r_values = slice r.Serve.Backend.values;
                r_indices = slice r.Serve.Backend.indices;
                r_scores = Option.map slice r.Serve.Backend.scores;
                r_batch_seq = batch_seq;
                r_latency_s = latency;
              };
          offset := !offset + n;
          record_latency t latency;
          t.requests_served <- t.requests_served + 1)
        requests;
      t.n_batches <- t.n_batches + 1;
      t.rows_served <- t.rows_served + n_rows
  | Error e -> List.iter (fun rq -> rq.rq_state <- Failed e) requests

(* Run one assembled batch (lock NOT held) and resolve its tickets.
   Rows are independent by contract, so when a shared batch fails each
   request re-runs alone: only a request that fails by itself gets the
   failure, and the others get their solo replies. *)
let run_batch t batch_seq requests =
  let outcomes =
    match (call t requests, requests) with
    | Error _, _ :: _ :: _ ->
        List.map (fun rq -> ([ rq ], call t [ rq ])) requests
    | outcome, _ -> [ (requests, outcome) ]
  in
  let finished_at = Instrument.Collect.now () in
  Mutex.lock t.m;
  List.iter
    (fun (rqs, outcome) -> resolve t batch_seq finished_at rqs outcome)
    outcomes;
  t.in_flight <- false;
  Condition.broadcast t.cv_done;
  Condition.broadcast t.cv_room;
  Mutex.unlock t.m;
  (* off-lock: the collector is only ever touched from this domain *)
  fold_profile t

let scheduler_loop t =
  let batch_seq = ref 0 in
  Mutex.lock t.m;
  let rec loop () =
    if (not (has_pending t)) || (t.paused && not t.stopping) then
      if t.stopping then begin
        (* drained: nothing pending, nothing in flight *)
        t.stopped <- true;
        Condition.broadcast t.cv_done;
        Condition.broadcast t.cv_room;
        Mutex.unlock t.m
      end
      else begin
        Condition.wait t.cv_submit t.m;
        loop ()
      end
    else begin
      (* batching window: give light load a chance to coalesce *)
      if
        t.s_cfg.window_s > 0.
        && t.queued_rows < t.s_cfg.batch_rows
        && not t.stopping
      then begin
        Mutex.unlock t.m;
        Unix.sleepf t.s_cfg.window_s;
        Mutex.lock t.m
      end;
      let requests = assemble t in
      if requests = [] then loop ()
      else begin
        t.in_flight <- true;
        Mutex.unlock t.m;
        run_batch t !batch_seq requests;
        incr batch_seq;
        Mutex.lock t.m;
        loop ()
      end
    end
  in
  loop ()

(* ---- lifecycle -------------------------------------------------------- *)

let create_on ?(config = default_config) backend =
  let q = backend.Serve.Backend.q in
  let config =
    let batch_rows = if config.batch_rows <= 0 then 4 * q else config.batch_rows in
    { config with batch_rows; jobs = max 1 config.jobs }
  in
  if config.queue_cap < 1 then fail "queue_cap must be at least 1";
  let t =
    {
      s_backend = backend;
      s_cfg = config;
      s_d = backend.Serve.Backend.d;
      m = Mutex.create ();
      cv_submit = Condition.create ();
      cv_room = Condition.create ();
      cv_done = Condition.create ();
      clients = [||];
      n_clients = 0;
      cursor = 0;
      queued_rows = 0;
      in_flight = false;
      paused = config.start_paused;
      stopping = false;
      stopped = false;
      scheduler = None;
      n_batches = 0;
      rows_served = 0;
      requests_served = 0;
      queue_hwm = 0;
      latencies = Array.make latency_window 0.;
      n_latencies = 0;
    }
  in
  (* The scheduler domain owns the session; its own Parallel scope gives
     batch execution the configured pool width. *)
  t.scheduler <-
    Some
      (Domain.spawn (fun () ->
           Parallel.run ~jobs:config.jobs (fun _pool -> scheduler_loop t)));
  t

let create ?config session = create_on ?config (Serve.Backend.of_session session)

let connect t =
  Mutex.protect t.m (fun () ->
      if t.stopping then raise Stopped;
      let c = { c_server = t; c_queue = Queue.create (); c_gone = false } in
      let n = Array.length t.clients in
      if t.n_clients = n then begin
        let grown =
          Array.make (max 4 (2 * n)) c (* placeholder fill, then blit *)
        in
        Array.blit t.clients 0 grown 0 n;
        t.clients <- grown
      end;
      t.clients.(t.n_clients) <- c;
      t.n_clients <- t.n_clients + 1;
      c)

let disconnect c =
  let t = c.c_server in
  Mutex.protect t.m (fun () ->
      if not (Queue.is_empty c.c_queue) then
        fail "disconnect: the client has queued requests";
      if not c.c_gone then begin
        c.c_gone <- true;
        let n = t.n_clients in
        let i = ref 0 in
        while t.clients.(!i) != c do
          incr i
        done;
        Array.blit t.clients (!i + 1) t.clients !i (n - 1 - !i);
        t.n_clients <- n - 1;
        (* the cursor keeps pointing at the client it would visit next *)
        if !i < t.cursor then t.cursor <- t.cursor - 1;
        if t.cursor >= t.n_clients then t.cursor <- 0
      end)

let row_width t = t.s_d
let queue_cap t = t.s_cfg.queue_cap

let submit c rows =
  let t = c.c_server in
  let n = Array.length rows in
  if n = 0 then fail "empty request";
  Array.iteri
    (fun i row ->
      if not (Serve.Session.valid_row t.s_d row) then
        fail "request row %d: expected %d finite values" i t.s_d)
    rows;
  Mutex.lock t.m;
  let rec admit () =
    if t.stopping then begin
      Mutex.unlock t.m;
      raise Stopped
    end
    else if c.c_gone then begin
      Mutex.unlock t.m;
      fail "submit on a disconnected client"
    end
    else if t.queued_rows + n > t.s_cfg.queue_cap && t.queued_rows > 0 then
      (* over the cap (a single huge request with an empty queue is
         admitted: it could otherwise never run) *)
      match t.s_cfg.backpressure with
      | `Fail_fast ->
          Mutex.unlock t.m;
          raise Overloaded
      | `Block ->
          Condition.wait t.cv_room t.m;
          admit ()
    else begin
      let rq =
        {
          rq_rows = rows;
          rq_submitted_at = Instrument.Collect.now ();
          rq_state = Pending;
        }
      in
      Queue.push rq c.c_queue;
      t.queued_rows <- t.queued_rows + n;
      if t.queued_rows > t.queue_hwm then t.queue_hwm <- t.queued_rows;
      Condition.signal t.cv_submit;
      Mutex.unlock t.m;
      { tk_server = t; tk_request = rq }
    end
  in
  admit ()

let await tk =
  let t = tk.tk_server in
  Mutex.lock t.m;
  let rec wait () =
    match tk.tk_request.rq_state with
    | Pending ->
        Condition.wait t.cv_done t.m;
        wait ()
    | Served r ->
        Mutex.unlock t.m;
        r
    | Failed e ->
        Mutex.unlock t.m;
        raise e
  in
  wait ()

let rpc c rows = await (submit c rows)

let pause t = Mutex.protect t.m (fun () -> t.paused <- true)

let resume t =
  Mutex.protect t.m (fun () ->
      t.paused <- false;
      Condition.broadcast t.cv_submit)

let drain t =
  Mutex.lock t.m;
  while (has_pending t || t.in_flight) && not t.stopped do
    Condition.wait t.cv_done t.m
  done;
  Mutex.unlock t.m

let stop t =
  let join =
    Mutex.protect t.m (fun () ->
        if t.stopping then None
        else begin
          t.stopping <- true;
          t.paused <- false;
          Condition.broadcast t.cv_submit;
          Condition.broadcast t.cv_room;
          let d = t.scheduler in
          t.scheduler <- None;
          d
        end)
  in
  match join with
  | Some d ->
      Domain.join d;
      fold_profile t
  | None ->
      (* a concurrent or earlier [stop] owns the join; wait it out *)
      Mutex.lock t.m;
      while not t.stopped do
        Condition.wait t.cv_done t.m
      done;
      Mutex.unlock t.m

let serve_all ?(config = default_config) ~clients backend requests =
  if clients < 1 then fail "clients must be at least 1";
  let t = create_on ~config:{ config with start_paused = true } backend in
  let handles = Array.init clients (fun _ -> connect t) in
  (* the longest prefix that fits the cap (always at least one request:
     an empty queue admits any request) *)
  let rec wave rows acc = function
    | r :: rest when acc = [] || rows + Array.length r <= config.queue_cap ->
        wave (rows + Array.length r) (r :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go i served = function
    | [] -> List.rev served
    | pending ->
        let batch, rest = wave 0 [] pending in
        let tickets =
          List.mapi (fun j r -> submit handles.((i + j) mod clients) r) batch
        in
        resume t;
        let served = List.rev_append (List.map await tickets) served in
        pause t;
        go (i + List.length batch) served rest
  in
  let responses =
    Fun.protect ~finally:(fun () -> stop t) (fun () -> go 0 [] requests)
  in
  (t, responses)
