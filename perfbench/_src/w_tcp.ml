(* tcp-hdc: the registry hdc session (10 x 1024, q=16) behind Server and
   Tcp on loopback, driven by two client connections (the core count),
   each a closed loop sending one 1024-cell row per request.  The codec
   and the micro-batching scheduler dominate here, and only here. *)

open Bench
module Reg = Workloads.Registry

let clients = 2
let pool = 512 (* distinct request lines, walked in turn by each client *)
let flip = 0.15 (* share of cells re-drawn in a query *)
let exact_batches = 16
let per_client = 150 (* requests per connection per round *)

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rpc c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

(* "ok IDX:VALUE" -> (idx, value) *)
let parse_reply s =
  match String.split_on_char ' ' s with
  | [ "ok"; pair ] -> (
      match String.split_on_char ':' pair with
      | [ i; v ] -> (
          match (int_of_string_opt i, float_of_string_opt v) with
          | Some i, Some v -> Some (i, v)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* What the backend wrapper records per micro-batch, on the scheduler
   domain: call time, dispatched rows and the session's deltas. *)
type batch_rec = {
  secs : float;
  brows : int;
  energy : float;
  sim_lat : float;
  ops : int;
  counts : int array;  (* search ops, binary / nibble / generic kernel rows *)
}

let counts (s : Camsim.Stats.t) =
  Camsim.Stats.[| s.n_search_ops; s.n_kernel_binary; s.n_kernel_nibble; s.n_kernel_generic |]

let session_ops (s : Serve.Session.stats) =
  List.fold_left (fun a (_, n) -> a + n) 0 s.Serve.Session.ops_executed

(* The session's backend, with every batch call timed from outside. *)
let timed_backend session batches =
  let b = Serve.Backend.of_session session in
  let device () = counts (Camsim.Simulator.stats (Serve.Session.simulator session)) in
  let query rows =
    let s0 = b.Serve.Backend.stats () and c0 = device () in
    let t0 = now () in
    let r = Span.with_ "server.backend" (fun () -> b.Serve.Backend.query rows) in
    let secs = now () -. t0 in
    let s1 = b.Serve.Backend.stats () and c1 = device () in
    batches :=
      {
        secs;
        brows = Array.length rows;
        energy = s1.Serve.Session.sim_energy_j -. s0.Serve.Session.sim_energy_j;
        sim_lat = s1.Serve.Session.sim_latency_s -. s0.Serve.Session.sim_latency_s;
        ops = session_ops s1 - session_ops s0;
        counts = Array.map2 ( - ) c1 c0;
      }
      :: !batches;
    r
  in
  { b with Serve.Backend.query }

type front = { srv : Server.t; lst : Tcp.listener }

let serve backend =
  let srv =
    Server.create_on ~config:{ Server.default_config with batch_rows = 16; jobs = 1 } backend
  in
  { srv; lst = Tcp.listen ~port:0 srv }

let stop f =
  Tcp.shutdown f.lst;
  Server.stop f.srv

type sample = { lat : float; line : int; reply : string }

let run ctx =
  let entry = Reg.find_exn "hdc" in
  let g = Prng.make ctx.seed in
  let shape = { entry.Reg.default_shape with Reg.seed = 1 + Prng.int g 1_000_000 } in
  let spec = entry.Reg.fix_spec shape (Archspec.Spec.square 32 Archspec.Spec.Base) in
  let ki = match entry.Reg.exec with Reg.Kernel mk -> mk shape spec | _ -> assert false in
  let stored = ki.Reg.ki_stored in
  (* request pool: stored prototypes with a share of cells re-drawn *)
  let rows_of = Array.make pool [||] and labels = Array.make pool 0 in
  let lines =
    Array.init pool (fun i ->
        let src = Prng.int g (Array.length stored) in
        let row =
          Array.map (fun v -> if Prng.float g < flip then float_of_int (Prng.int g 2) else v)
            stored.(src)
        in
        rows_of.(i) <- row;
        labels.(i) <- src;
        String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") row)))
  in
  let expected = Array.map (Oracle.dot_top1 stored) rows_of in
  let tl = tally () and hits = ref 0 and answered = ref 0 in
  let check line reply =
    let ok =
      match parse_reply reply with
      | Some (idx, _) ->
          if idx = labels.(line) then incr hits;
          incr answered;
          idx = expected.(line)
      | None -> false
    in
    record tl ok
  in
  let batches = ref [] in
  let current = ref None in
  (* set-up: compile and pin the session, start the server and the
     listener, connect, and serve the first request *)
  let setup () =
    let t0 = now () in
    let session = Serve.Session.create ~spec ~stored ki.Reg.ki_source in
    let front = serve (timed_backend session batches) in
    let first = connect (Tcp.port front.lst) in
    let reply = rpc first lines.(0) in
    let t = now () -. t0 in
    close first;
    current := Some (session, front);
    check 0 reply;
    t
  in
  let drop () =
    Option.iter (fun (_, f) -> stop f) !current;
    current := None
  in
  let compiles0 = Serve.Artifact_cache.compiles () in
  let setup_s, setup_layers =
    if not ctx.trace then (setup_time ctx ~n:7 ~drop setup, [])
    else begin
      let traced () =
        ignore
          (Span.with_ "frontend.parse" (fun () ->
               Frontend.Emit.compile_string ki.Reg.ki_source));
        ignore
          (Span.with_ "passes.compile" (fun () ->
               Serve.Artifact_cache.lookup ~spec ki.Reg.ki_source));
        setup ()
      in
      Span.on := true;
      let s = setup_time ctx ~n:3 ~drop traced in
      Span.on := false;
      let tbl = Span.self_times () in
      let ms n = 1e3 *. Span.mean_self tbl n in
      ( s,
        [
          ("frontend.parse_ms", ms "frontend.parse");
          ("passes.compile_ms", ms "passes.compile" -. ms "frontend.parse");
          ("passes.compiles", float_of_int (Serve.Artifact_cache.compiles () - compiles0) /. 3.);
        ] )
    end
  in
  let session = fst (Option.get !current) in
  drop ();
  let backend = timed_backend session batches in
  let setup_batches = List.length !batches in
  let cursor = Array.init clients (fun c -> c * pool / clients) in
  (* one closed loop per connection, each on its own thread of the main
     domain: client threads spend their time blocked on the socket, and
     extra domains would only add stop-the-world participants on a
     two-core machine *)
  let client conn c =
    List.init per_client (fun _ ->
        let line = cursor.(c) in
        cursor.(c) <- (line + 1) mod pool;
        let t0 = now () in
        let reply =
          Span.with_ "tcp.rpc" (fun () ->
              try rpc conn lines.(line) with End_of_file | Sys_error _ -> "")
        in
        { lat = now () -. t0; line; reply })
  in
  let sent = ref [] and server_stats = ref [] in
  (* a round: a fresh server and listener over the warm session, two
     connections, [per_client] requests on each, then shutdown *)
  let body () =
    let front = serve backend in
    let conns = Array.init clients (fun _ -> connect (Tcp.port front.lst)) in
    let results = Array.make clients [] in
    let t0 = now () in
    let threads =
      Array.init clients (fun c ->
          Thread.create (fun () -> results.(c) <- client conns.(c) c) ())
    in
    Array.iter Thread.join threads;
    let busy = now () -. t0 in
    Array.iter close conns;
    stop front;
    server_stats := Server.stats front.srv :: !server_stats;
    let samples = List.concat (Array.to_list results) in
    List.iter (fun x -> check x.line x.reply) samples;
    if !Span.on then sent := samples @ !sent;
    (List.length samples, busy, Array.of_list (List.map (fun x -> x.lat) samples))
  in
  hits := 0;
  answered := 0;
  let kept, plain = measure ctx ~warmup:2 body in
  (* exact figures: the first micro-batches of the rounds, each a full
     q-row chunk whatever its fill *)
  let early =
    List.filteri (fun i _ -> i >= setup_batches && i < setup_batches + exact_batches)
      (List.rev !batches)
  in
  let early_rows = float_of_int (List.fold_left (fun a b -> a + b.brows) 0 early) in
  let sum f = List.fold_left (fun a b -> a +. f b) 0. early in
  let per_row i = sum (fun b -> float_of_int b.counts.(i)) /. early_rows in
  let layers =
    if not ctx.trace then []
    else begin
      let f = factor ctx (median_of (List.map (fun r -> r.calib) kept)) in
      (* the traced phase's rounds are the newest ones *)
      let traced_stats = List.filteri (fun i _ -> i < List.length kept) !server_stats in
      let total fn = List.fold_left (fun a st -> a + fn st) 0 traced_stats in
      let server_p50 = median_of (List.map (fun st -> st.Server.lat_p50_s) traced_stats) in
      let rtt_p50 = quantile (sorted_copy (Array.of_list (List.map (fun x -> x.lat) !sent))) 0.5 in
      let backend_p50 =
        quantile (sorted_copy (Array.of_list (List.map (fun b -> b.secs) !batches))) 0.5
      in
      (* codec replay on the traced phase's own lines and replies *)
      let replay = List.filteri (fun i _ -> i < 2000) !sent in
      let time_each fn =
        mean
          (Array.of_list
             (List.map
                (fun x ->
                  let t0 = now () in
                  fn x;
                  now () -. t0)
                replay))
      in
      let parse_s = time_each (fun x -> ignore (Tcp.parse_request lines.(x.line))) in
      let format_s =
        time_each (fun x ->
            match parse_reply x.reply with
            | Some (i, v) ->
                ignore
                  (Tcp.format_response
                     {
                       Server.r_values = [| [| v |] |];
                       r_indices = [| [| i |] |];
                       r_scores = None;
                       r_batch_seq = 0;
                       r_latency_s = 0.;
                     })
            | None -> ())
      in
      let served = total (fun st -> st.Server.rows_served) in
      let padded = total (fun st -> st.Server.rows_padded) in
      setup_layers
      @ trace_metrics ~concurrency:clients ctx ~traced:kept ~plain ~layers:[ "tcp.rpc" ]
      @ [
          ("interp.ops_per_query",
           float_of_int (List.fold_left (fun a b -> a + b.ops) 0 early) /. early_rows);
          ("camsim.search_ops_per_query", per_row 0);
          ("camsim.kernel_binary_per_query", per_row 1);
          ("camsim.kernel_nibble_per_query", per_row 2);
          ("camsim.kernel_generic_per_query", per_row 3);
          ("server.batch_fill",
           float_of_int served
           /. float_of_int (max 1 (total (fun st -> st.Server.batches_coalesced))));
          ("server.pad_ratio", float_of_int padded /. float_of_int (max 1 (served + padded)));
          ("server.backend_ms", 1e3 *. f *. backend_p50);
          ("server.queue_wait_ms", 1e3 *. f *. (server_p50 -. backend_p50));
          ("tcp.parse_us", 1e6 *. f *. parse_s);
          ("tcp.format_us", 1e6 *. f *. format_s);
          ("tcp.wire_ms", 1e3 *. f *. (rtt_p50 -. server_p50));
        ]
    end
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("peak_rss_mb", !fixed_peak_rss);
      ("success_rate", success_rate tl);
      ("accuracy", float_of_int !hits /. float_of_int (max 1 !answered));
      ("sim_energy_per_query_j", sum (fun b -> b.energy) /. early_rows);
      ("sim_latency_per_query_s", sum (fun b -> b.sim_lat) /. early_rows);
    ]
  in
  {
    tally = tl;
    correct = tl.failed = 0;
    metrics = e2e @ round_metrics ctx kept @ latency_metrics ctx kept @ layers;
  }
