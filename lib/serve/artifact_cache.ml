(* The process-wide compiled-artifact cache, with single-flight misses:
   when N domains race [lookup] on the same (source, spec) key, exactly
   one runs the compilation pipeline; the others block on [built] until
   the artifact lands and then share it physically. A failed compile
   clears the in-flight marker (waking one waiter to retry or fail in
   its own right) and re-raises in the builder. *)

type 'a entry = Ready of 'a | Building

let table : (string, C4cam.Driver.compiled entry) Hashtbl.t = Hashtbl.create 16

(* Lowerings for r < q query rows, keyed on the artifact's key and r:
   the shards of one store share one module per r. *)
let lowered : (string * int, Ir.Func_ir.modul entry) Hashtbl.t =
  Hashtbl.create 16

let lock = Mutex.create ()
let built = Condition.create ()

(* Pipeline executions since process start — the test hook behind the
   compile-exactly-once contract — and lowerings likewise. *)
let compile_count = Atomic.make 0
let lower_count = Atomic.make 0

let compiles () = Atomic.get compile_count
let lowerings () = Atomic.get lower_count

let key ~spec source =
  Digest.to_hex
    (Digest.string (Archspec.Spec.to_string spec ^ "\x00" ^ source))

(* The value under [k] in [tbl], built by [build] when absent. Misses
   are single-flight; [counter] counts the builds. Returns whether this
   call built it. *)
let single_flight tbl k counter build =
  Mutex.lock lock;
  let rec claim () =
    match Hashtbl.find_opt tbl k with
    | Some (Ready c) ->
        Mutex.unlock lock;
        (c, `Hit)
    | Some Building ->
        (* another domain is building this key; wait for it rather
           than duplicating the work *)
        Condition.wait built lock;
        claim ()
    | None -> (
        Hashtbl.replace tbl k Building;
        Mutex.unlock lock;
        (* build outside the lock: pipelines are slow, and the Building
           marker already serializes per-key work *)
        match build () with
        | c ->
            Atomic.incr counter;
            Mutex.lock lock;
            Hashtbl.replace tbl k (Ready c);
            Condition.broadcast built;
            Mutex.unlock lock;
            (c, `Miss)
        | exception e ->
            Mutex.lock lock;
            (* only drop our own marker: a concurrent [clear] may have
               removed it already *)
            (match Hashtbl.find_opt tbl k with
            | Some Building -> Hashtbl.remove tbl k
            | _ -> ());
            Condition.broadcast built;
            Mutex.unlock lock;
            raise e)
  in
  claim ()

let lookup ?profile ~spec source =
  single_flight table (key ~spec source) compile_count (fun () ->
      C4cam.Driver.compile ?profile ~spec source)

let lower (c : C4cam.Driver.compiled) r =
  fst
    (single_flight lowered
       (key ~spec:c.spec c.source, r)
       lower_count
       (fun () -> C4cam.Driver.lower_rows c r))

let length () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold
        (fun _ e n -> match e with Ready _ -> n + 1 | Building -> n)
        table 0)

let clear () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset table;
      Hashtbl.reset lowered)
