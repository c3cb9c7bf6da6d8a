(* A fixed-size domain pool with a single-batch chunk dispenser.

   One batch (a chunked [lo, hi) index range) is in flight at a time;
   workers and the submitting owner pull chunks under a mutex until the
   range is drained. Results must be written by index by the callback,
   so which domain runs which chunk is unobservable — that is the whole
   determinism story, the pool itself needs no merging logic.

   Exceptions: every failing chunk is recorded, but only the one with
   the lowest start index is re-raised, so the surfaced error does not
   depend on the schedule. *)

exception Nested_run

type batch = {
  b_hi : int;
  b_chunk : int;
  b_fn : int -> int -> unit; (* [fn lo hi] runs the half-open chunk *)
  mutable b_next : int; (* next unclaimed index *)
  mutable b_running : int; (* chunks claimed but not finished *)
  mutable b_failed : (int * exn * Printexc.raw_backtrace) option;
}

type pool = {
  n_jobs : int;
  mutex : Mutex.t;
  work : Condition.t; (* signalled when a batch is submitted / shutdown *)
  finished : Condition.t; (* signalled when a batch fully drains *)
  mutable batch : batch option;
  mutable shutdown : bool;
  owner : Domain.id;
}

(* Ambient pool of the current domain. Worker domains never install it,
   so parallel code reached from inside a worker task sees [None] and
   runs sequentially instead of deadlocking on its own pool. *)
let ambient : pool option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* True while this domain is executing a chunk for some pool — lets
   [run] reject nested scopes opened from worker tasks, whose domain has
   no ambient pool to check. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let jobs p = p.n_jobs
let current () = Domain.DLS.get ambient
let current_jobs () = match current () with Some p -> p.n_jobs | None -> 1

let default_override = Atomic.make 0

let set_default_jobs n = Atomic.set default_override (max 1 n)

let recommended_jobs () = Domain.recommended_domain_count ()

let default_jobs () =
  match Atomic.get default_override with
  | n when n > 0 -> n
  | _ -> (
      match Sys.getenv_opt "C4CAM_JOBS" with
      | Some s -> ( match int_of_string_opt (String.trim s) with
                    | Some n when n > 0 -> n
                    | Some n when n <= 0 -> recommended_jobs ()
                    | _ -> 1)
      | None -> 1)

(* Claim the next chunk of the in-flight batch. Caller holds the lock. *)
let take_chunk b =
  let lo = b.b_next in
  if lo >= b.b_hi then None
  else begin
    let hi = min b.b_hi (lo + b.b_chunk) in
    b.b_next <- hi;
    b.b_running <- b.b_running + 1;
    Some (lo, hi)
  end

(* Run one claimed chunk outside the lock, then report back in. *)
let run_chunk p b (lo, hi) =
  Domain.DLS.set in_task true;
  let failure =
    try
      b.b_fn lo hi;
      None
    with e -> Some (lo, e, Printexc.get_raw_backtrace ())
  in
  Domain.DLS.set in_task false;
  Mutex.lock p.mutex;
  (match failure with
  | Some (flo, _, _) ->
      (* keep only the lowest-index failure: schedule-independent *)
      (match b.b_failed with
      | Some (plo, _, _) when plo <= flo -> ()
      | _ -> b.b_failed <- failure)
  | None -> ());
  b.b_running <- b.b_running - 1;
  if b.b_next >= b.b_hi && b.b_running = 0 then
    Condition.broadcast p.finished;
  Mutex.unlock p.mutex

let worker_loop p =
  Mutex.lock p.mutex;
  let rec loop () =
    if p.shutdown then Mutex.unlock p.mutex
    else
      match p.batch with
      | Some b -> (
          match take_chunk b with
          | Some range ->
              Mutex.unlock p.mutex;
              run_chunk p b range;
              Mutex.lock p.mutex;
              loop ()
          | None ->
              Condition.wait p.work p.mutex;
              loop ())
      | None ->
          Condition.wait p.work p.mutex;
          loop ()
  in
  loop ()

(* Submit a batch from the owner domain, participate in draining it,
   wait for stragglers, then re-raise the recorded failure if any. *)
let submit p ~chunk ~lo ~hi fn =
  let b =
    { b_hi = hi; b_chunk = chunk; b_fn = fn; b_next = lo; b_running = 0;
      b_failed = None }
  in
  Mutex.lock p.mutex;
  p.batch <- Some b;
  Condition.broadcast p.work;
  let rec drain () =
    match take_chunk b with
    | Some range ->
        Mutex.unlock p.mutex;
        run_chunk p b range;
        Mutex.lock p.mutex;
        drain ()
    | None -> ()
  in
  drain ();
  while b.b_running > 0 do
    Condition.wait p.finished p.mutex
  done;
  p.batch <- None;
  Mutex.unlock p.mutex;
  match b.b_failed with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_for ?pool ?chunk ~lo ~hi fn =
  let loop lo hi =
    for i = lo to hi - 1 do
      fn i
    done
  in
  if hi <= lo then ()
  else
    let pool = match pool with Some _ as p -> p | None -> current () in
    match pool with
    | None -> loop lo hi
    | Some p ->
        (* Fall back to the plain loop whenever submitting would be
           unsound: a single-job pool, a call from a non-owner domain
           (worker tasks included), or a batch already in flight
           (nested parallel_for on the owner). *)
        let can_submit =
          p.n_jobs > 1
          && (not (Domain.DLS.get in_task))
          && Domain.self () = p.owner
          &&
          (Mutex.lock p.mutex;
           let free = p.batch = None && not p.shutdown in
           Mutex.unlock p.mutex;
           free)
        in
        if not can_submit then loop lo hi
        else
          let chunk =
            match chunk with
            | Some c when c > 0 -> c
            | _ -> max 1 ((hi - lo + (4 * p.n_jobs) - 1) / (4 * p.n_jobs))
          in
          submit p ~chunk ~lo ~hi loop

let run ?jobs f =
  if Domain.DLS.get in_task then raise Nested_run;
  (match Domain.DLS.get ambient with
  | Some _ -> raise Nested_run
  | None -> ());
  let jobs =
    match jobs with
    | Some n when n > 0 -> n
    | Some _ -> recommended_jobs ()
    | None -> default_jobs ()
  in
  let p =
    {
      n_jobs = jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      shutdown = false;
      owner = Domain.self ();
    }
  in
  let workers =
    if jobs <= 1 then [||]
    else Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p))
  in
  Domain.DLS.set ambient (Some p);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set ambient None;
      Mutex.lock p.mutex;
      p.shutdown <- true;
      Condition.broadcast p.work;
      Mutex.unlock p.mutex;
      Array.iter Domain.join workers)
    (fun () -> f p)

let map ?pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?pool ~lo:0 ~hi:n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* every index ran *))
      out
  end

let map_list ?pool f xs = Array.to_list (map ?pool f (Array.of_list xs))
