type t = {
  created : float;
  mutable frontend_s : float;
  mutable jobs : int;
  mutable rev_passes : Profile.pass_entry list;
  table : (string, int) Hashtbl.t;
  mutable sim : Profile.sim option;
  mutable serve : Profile.serve option;
  mutable placed : Profile.placed option;
}

let now () = Unix.gettimeofday ()

let create () =
  {
    created = now ();
    frontend_s = 0.;
    jobs = 1;
    rev_passes = [];
    table = Hashtbl.create 16;
    sim = None;
    serve = None;
    placed = None;
  }

let record_pass t entry = t.rev_passes <- entry :: t.rev_passes
let set_frontend t s = t.frontend_s <- s
let set_jobs t n = t.jobs <- max 1 n
let set_sim t s = t.sim <- Some s
let set_serve t s = t.serve <- Some s
let set_placement t p = t.placed <- Some p

let bump ?(n = 1) t name =
  Hashtbl.replace t.table name
    (n + Option.value ~default:0 (Hashtbl.find_opt t.table name))

let counters t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let profile t =
  {
    Profile.frontend_s = t.frontend_s;
    total_s = Float.max 0. (now () -. t.created);
    jobs = t.jobs;
    passes = List.rev t.rev_passes;
    rewrites = counters t;
    sim = t.sim;
    serve = t.serve;
    placed = t.placed;
  }

(* ---- ambient collector ------------------------------------------------ *)

(* Domain-local: parallel DSE candidates each install their own
   collector on their worker domain without clobbering each other, and
   rule counters keep attributing to the collector of the compile that
   triggered them. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_current c f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

let note ?n name =
  match Domain.DLS.get current with None -> () | Some t -> bump ?n t name
