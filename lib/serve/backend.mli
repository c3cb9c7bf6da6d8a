(** The execution interface the concurrent server schedules onto.

    [Server] used to be hard-wired to one {!Session}; a backend
    abstracts "something that serves query batches" so the same
    micro-batching scheduler can front a single pinned simulator or a
    {!Sharded_store} spanning many (see [docs/SHARDING.md]). *)

type reply = {
  values : float array array;  (** one row of [k] values per query row *)
  indices : int array array;
  scores : float array array option;
      (** full score matrix when the kernel yields one *)
}

type t = {
  q : int;  (** kernel query arity — batches must be multiples of it *)
  d : int;  (** query row width *)
  run_config : C4cam.Driver.Run_config.t;
      (** the config whose collector the server folds its metrics into *)
  query : float array array -> reply;
      (** serve one batch; called only from the scheduler domain *)
  stats : unit -> Session.stats;
      (** cumulative session-shaped stats (a sharded store aggregates
          across its shards) *)
  serve_section : unit -> Instrument.Profile.serve;
      (** current serve profile section with scheduler fields zeroed;
          the server overlays its own before installing it *)
}

val of_session : Session.t -> t
(** The classic single-session backend — exactly the server's previous
    behavior. *)
