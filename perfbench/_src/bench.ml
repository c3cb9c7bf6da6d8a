(* Measurement machinery shared by the workloads: clock, seeded inputs,
   the drift calibration loop, rounds, statistics, spans and the result
   line.  Nothing here calls into the program under test. *)

let now = Unix.gettimeofday

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  calib_ref_s : float;  (** reference-machine calibration loop time *)
  trace_out : string;
}

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- seeded inputs ------------------------------------------------- *)

(* SplitMix64: the benchmark's own generator, so inputs share no code
   with the program's PRNGs. *)
module Prng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.(add (of_int seed) 0x9E3779B97F4A7C15L) }

  let bits64 t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  (* uniform in [0, n) for n < 2^30 *)
  let int t n = Int64.(to_int (rem (shift_right_logical (bits64 t) 2) (of_int n)))

  (* uniform in [0, 1) with 53 random bits *)
  let float t =
    Int64.(to_float (shift_right_logical (bits64 t) 11)) *. 0x1p-53
end

(* ---- drift calibration --------------------------------------------- *)

(* A fixed loop that shares no code with the program, in three parts of
   about equal time, each standing for one kind of work the workloads do:

   - allocation and promotion: 60,000 small records chained into short
     lists, one in four kept in a 50,000-slot array, so the minor heap
     fills and survivors are promoted;
   - the standard library's formatting and containers: Printf, Format
     boxes, Scanf, string splitting and sorting, Map and Set;
   - OCaml's own parser and printer (compiler-libs): a fixed generated
     source of 16 type, function and module items, parsed and printed
     back.  Frontends and passes are large, pointer-chasing code, and so
     is this.

   Its time tracks how fast the VM runs right now; host times are
   rescaled by [calib_ref_s / measured].  Loops over small float arrays,
   hash tables or bit twiddling alone tracked the workloads worse: in
   the host's noisy periods compile-heavy and codec-heavy work slowed
   down more than those loops did (see NOTES.md). *)
let calib_sink = ref 0

type calib_cell = { c_n : int; c_x : float; c_next : calib_cell option }

let calib_alloc () =
  let keep = Array.make 50_000 None in
  let prev = ref None in
  for i = 0 to 60_000 do
    let c = { c_n = i; c_x = float_of_int i; c_next = !prev } in
    prev := if i land 7 = 0 then None else Some c;
    if i land 5 = 0 then keep.(i mod 50_000) <- Some c
  done;
  match keep.(40_000) with Some c -> c.c_n | None -> 0

module Calib_map = Map.Make (String)
module Calib_set = Set.Make (Int)

let calib_stdlib () =
  let m = ref Calib_map.empty and st = ref Calib_set.empty and acc = ref 0 in
  for i = 0 to 500 do
    let s =
      Printf.sprintf "node%d[%d] = %08x; %.3f" i (i * 7)
        ((i * 2654435761) land 0xffffff)
        (float_of_int i /. 7.)
    in
    let f =
      Format.asprintf "@[<hv 2>(%s@ %a)@]" s
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
        [ i; i + 1; i * 3 ]
    in
    Scanf.sscanf s "node%d[%d] = %x; %f" (fun a b c _ -> acc := !acc + a + b + c);
    let parts = List.sort compare (String.split_on_char ' ' f) in
    m := Calib_map.add (List.hd parts ^ string_of_int i) (String.length f) !m;
    st := Calib_set.add (Hashtbl.hash parts) !st;
    acc := !acc + String.length (String.concat "," parts) + Calib_set.cardinal !st
  done;
  Calib_map.fold (fun k v a -> a + v + String.length k) !m !acc

let calib_source =
  String.concat "\n"
    (List.init 16 (fun i ->
         Printf.sprintf
           "type t%d = { a%d : int; b%d : string list; c%d : (int * float) option }\n\
            let rec f%d x acc = match x with\n\
            | [] -> List.rev acc\n\
            | { a%d; b%d; c%d = Some (k, v) } :: rest when a%d > %d ->\n\
           \  f%d rest ((k + a%d, v *. %d.5, String.concat \"%d\" b%d) :: acc)\n\
            | _ :: rest -> f%d rest acc\n\
            let g%d n = let h = Hashtbl.create %d in\n\
           \  for i = 0 to n do Hashtbl.replace h (i mod %d) [i; i * %d] done;\n\
           \  Hashtbl.fold (fun k v a -> k + List.length v + a) h 0\n\
            module M%d = struct let x = [| %d; %d; %d |] let y = Array.map (fun v -> v * %d) x end\n"
           i i i i i i i i i i i i i i i i i (i + 8) (i + 3) i i i (i + 1) (i + 2) i))

let calib_parse () =
  let ast = Parse.implementation (Lexing.from_string calib_source) in
  let b = Buffer.create 16_384 in
  let ppf = Format.formatter_of_buffer b in
  Pprintast.structure ppf ast;
  Format.pp_print_flush ppf ();
  Buffer.length b

let calib_once () =
  let t0 = now () in
  let n = calib_alloc () + calib_stdlib () + calib_parse () in
  let t = now () -. t0 in
  calib_sink := n;
  t

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [n] readings between two full major collections: the loop allocates,
   so it must neither pay for the program's garbage nor leave its own to
   be collected on the program's clock *)
let readings n =
  Gc.full_major ();
  let r = List.init n (fun _ -> calib_once ()) in
  Gc.full_major ();
  r

let factor ctx calib = ctx.calib_ref_s /. calib

(* ---- statistics ----------------------------------------------------- *)

(* linearly interpolated quantile of a sorted array, p in [0, 1] *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_copy a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let quartile_of ~upper xs =
  quantile (sorted_copy (Array.of_list xs)) (if upper then 0.75 else 0.25)

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* ---- spans ---------------------------------------------------------- *)

(* In-memory spans around the benchmark's calls into each layer.  Off
   unless [Span.on] is set; a span records its name, wall interval,
   parent and thread.  Self time is duration minus direct children. *)
module Span = struct
  type t = {
    id : int;
    name : string;
    parent : int;
    tid : int;
    t0 : float;
    mutable t1 : float;
  }

  let on = ref false
  let lock = Mutex.create ()
  let recorded : t list ref = ref []
  let next_id = ref 0

  (* open spans per thread, innermost first *)
  let stacks : (int, t list) Hashtbl.t = Hashtbl.create 8

  let with_ name f =
    if not !on then f ()
    else begin
      let tid = Thread.id (Thread.self ()) in
      let s =
        Mutex.protect lock (fun () ->
            let open_ = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
            let parent = match open_ with p :: _ -> p.id | [] -> -1 in
            let s = { id = !next_id; name; parent; tid; t0 = now (); t1 = nan } in
            incr next_id;
            Hashtbl.replace stacks tid (s :: open_);
            s)
      in
      Fun.protect
        ~finally:(fun () ->
          s.t1 <- now ();
          Mutex.protect lock (fun () ->
              Hashtbl.replace stacks tid (List.tl (Hashtbl.find stacks tid));
              recorded := s :: !recorded))
        f
    end

  let reset () = recorded := []

  (* name -> (total self seconds, count) *)
  let self_times () =
    let spans = !recorded in
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
          Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
      spans;
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self =
          s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
        in
        let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (t +. self, n + 1))
      spans;
    tbl

  (* per-call mean self time of [name], in seconds (0 when absent) *)
  let mean_self tbl name =
    match Hashtbl.find_opt tbl name with
    | Some (t, n) when n > 0 -> t /. float_of_int n
    | _ -> 0.

  let total_self tbl name =
    match Hashtbl.find_opt tbl name with Some (t, _) -> t | None -> 0.

  let calls tbl name =
    match Hashtbl.find_opt tbl name with Some (_, n) -> n | None -> 0

  (* Chrome trace-event JSON, one complete ("X") event per span *)
  let write_chrome path =
    let spans = List.rev !recorded in
    let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        if i > 0 then output_string oc ",\n";
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
           \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          s.name s.tid
          ((s.t0 -. base) *. 1e6)
          ((s.t1 -. s.t0) *. 1e6)
          s.id s.parent)
      spans;
    output_string oc "]}\n";
    close_out oc
end

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* ---- process figures ------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- set-up and rounds ---------------------------------------------- *)

(* Set-up time in reference-machine seconds: the lower quartile of [n]
   fresh attempts (interference only lengthens an attempt; see the round
   statistics below).  Before each attempt the previous attempt's state
   is dropped, the caches are cleared and the heap collected, so every
   attempt starts from the same state; calibration readings bracket each
   attempt.  [attempt] returns the raw seconds its program calls took. *)
let setup_time ctx ~n ~drop attempt =
  quartile_of ~upper:false
    (List.init n (fun _ ->
         drop ();
         Serve.Artifact_cache.clear ();
         let before = readings 3 in
         let raw = attempt () in
         let calib = quartile_of ~upper:false (before @ readings 3) in
         raw *. factor ctx calib))

type round = {
  ops : int;  (** completed calls *)
  majors : int;  (** major collections during the calls *)
  busy : float;  (** raw seconds inside program calls *)
  lat : float array;  (** raw seconds of each latency-scoped call *)
  bracket : float list;  (** calibration readings around the round *)
  mutable calib : float;  (** smoothed calibration time for the round *)
}

let min_rounds = 4

(* VmHWM once the first [warmup + min_rounds] rounds are done: every run
   does that much work, so unlike the high-water mark at exit it does
   not depend on how many rounds the budget allowed *)
let fixed_peak_rss = ref nan

(* A closed-loop timed phase.  Every round does the same fixed work
   ([body ()] returns [(ops, busy, latencies)]), starts from a full major
   collection and is bracketed by calibration readings.  Rounds repeat
   until [budget] wall seconds have passed (at least [warmup] +
   [min_rounds]); the first [warmup] are discarded.  A round's
   calibration is the lower quartile of its own and its neighbours'
   readings: a single reading jitters more than the VM drifts over a few
   rounds, and interference only ever slows a reading down. *)
let timed_phase ~warmup ~budget body =
  let start = now () in
  let rec go acc i =
    if i >= warmup + min_rounds && now () -. start >= budget then
      Array.of_list (List.rev acc)
    else begin
      let before = readings 3 in
      let m0 = major_collections () in
      let ops, busy, lat = body () in
      let majors = major_collections () - m0 in
      let bracket = before @ readings 3 in
      if i = warmup + min_rounds - 1 && Float.is_nan !fixed_peak_rss then
        fixed_peak_rss := peak_rss_mb ();
      go ({ ops; majors; busy; lat; bracket; calib = nan } :: acc) (i + 1)
    end
  in
  let all = go [] 0 in
  let n = Array.length all in
  Array.iteri
    (fun i r ->
      let window =
        List.concat_map (fun j -> all.(j).bracket)
          (List.filter (fun j -> j >= 0 && j < n) [ i - 1; i; i + 1 ])
      in
      r.calib <- quartile_of ~upper:false window;
      log "round %d: %d ops, %.4f s busy, calib %.3f ms, %.2f ops/s raw%s"
        i r.ops r.busy (1e3 *. r.calib) (float_of_int r.ops /. r.busy)
        (if i < warmup then " (warm-up)" else ""))
    all;
  List.filteri (fun i _ -> i >= warmup) (Array.to_list all)

(* Round statistics.  A round on this shared machine can only be slowed
   down by interference, never sped up, so the benchmark reads the
   faster rounds: the upper quartile of the rounds' calibrated
   throughput and the lower quartile of their latency percentiles. *)
let rate ctx r = float_of_int r.ops /. (r.busy *. factor ctx r.calib)

let ops_per_s ctx rounds = quartile_of ~upper:true (List.map (rate ctx) rounds)

(* a round's latencies, calibrated, in ms, sorted *)
let round_latencies_ms ctx r =
  let f = factor ctx r.calib *. 1e3 in
  sorted_copy (Array.map (fun l -> l *. f) r.lat)

let latency_ms ctx rounds p =
  quartile_of ~upper:false
    (List.map (fun r -> quantile (round_latencies_ms ctx r) p) rounds)

(* pooled calibrated latencies, in ms, sorted *)
let latencies_ms ctx rounds =
  sorted_copy (Array.concat (List.map (round_latencies_ms ctx) rounds))

(* In a traced run the time is split: an untraced phase first, whose
   throughput is the base of host.trace_overhead, then the traced phase
   (already warm, so without warm-up rounds) that the per-layer metrics
   come from.  Returns (kept rounds, untraced rounds of a traced run). *)
let measure ctx ~warmup body =
  if not ctx.trace then (timed_phase ~warmup ~budget:ctx.seconds body, [])
  else begin
    let budget = ctx.seconds /. 2. in
    let plain = timed_phase ~warmup ~budget body in
    Span.reset ();
    Span.on := true;
    let traced = timed_phase ~warmup:0 ~budget body in
    Span.on := false;
    (traced, plain)
  end

let calib_ms rounds = 1e3 *. median_of (List.map (fun r -> r.calib) rounds)

(* ---- outcome and result line ---------------------------------------- *)

(* Success accounting: every attempted call either completes with a
   result equal to the oracle's, or counts as failed. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let success_rate t =
  if t.attempted = 0 then 0.
  else float_of_int (t.attempted - t.failed) /. float_of_int t.attempted

(* What a workload hands back: its tally, whether every check held, and
   its metrics by name (units live in the metric tables). *)
type outcome = {
  tally : tally;
  correct : bool;
  metrics : (string * float) list;
}

let attempt what f =
  match f () with
  | v -> Some v
  | exception e ->
      log "%s failed: %s" what (Printexc.to_string e);
      None

(* a call into the program under a span of its layer's name; [None] if
   it raised *)
let call name f = attempt name (fun () -> Span.with_ name f)

(* [f ()] and the minor-heap words it allocated on this domain *)
let with_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Figures every workload reports from its kept rounds. *)
let round_metrics ctx rounds =
  let ops = List.fold_left (fun a r -> a + r.ops) 0 rounds in
  let majors = List.fold_left (fun a r -> a + r.majors) 0 rounds in
  log "ops/s: %.2f raw median, %.2f calibrated upper quartile; calib median %.3f ms"
    (median_of (List.map (fun r -> float_of_int r.ops /. r.busy) rounds))
    (ops_per_s ctx rounds) (calib_ms rounds);
  [
    ("host.latency_p99_ms", quantile (latencies_ms ctx rounds) 0.99);
    ("host.calib_ms", calib_ms rounds);
    ("gc.major_per_kop", 1000. *. float_of_int majors /. float_of_int (max 1 ops));
  ]

(* Throughput and latency percentiles of workloads whose rounds are
   interchangeable. *)
let latency_metrics ctx rounds =
  log "latency: p50 and p90 of each round's %d samples, lower quartile over %d rounds"
    (match rounds with r :: _ -> Array.length r.lat | [] -> 0)
    (List.length rounds);
  [
    ("ops_per_s", ops_per_s ctx rounds);
    ("latency_p50_ms", latency_ms ctx rounds 0.5);
    ("latency_tail_ms", latency_ms ctx rounds 0.9);
  ]

(* Per-layer figures common to every traced run: the tracing overhead
   and the share of op time the layer spans account for ([concurrency]
   closed loops ran side by side). *)
let trace_metrics ?(concurrency = 1) ctx ~traced ~plain ~layers =
  let tbl = Span.self_times () in
  let attributed = List.fold_left (fun a n -> a +. Span.total_self tbl n) 0. layers in
  let busy =
    float_of_int concurrency *. List.fold_left (fun a r -> a +. r.busy) 0. traced
  in
  [
    ("host.trace_overhead", ops_per_s ctx traced /. ops_per_s ctx plain);
    ("host.attributed_share", attributed /. busy);
  ]

type metric = string * float * string

let print_result ~correct (t : tally) (metrics : metric list) =
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then
        failwith (Printf.sprintf "metric %s is not finite" name))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct t.attempted t.failed body
