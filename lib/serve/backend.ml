(* A serving backend: what the concurrent server needs from the thing
   that actually executes batches, whether that is one pinned session
   or a sharded store (Shard_set builds the stores' adapters). Plain
   record-of-closures — the server never inspects which it got. *)

type reply = {
  values : float array array;
  indices : int array array;
  scores : float array array option;
}

type t = {
  q : int;
  d : int;
  run_config : C4cam.Driver.Run_config.t;
  query : float array array -> reply;
  stats : unit -> Session.stats;
  serve_section : unit -> Instrument.Profile.serve;
}

let of_session s =
  let { C4cam.Driver.q; d; _ } = Session.info s in
  {
    q;
    d;
    run_config = Session.run_config s;
    query =
      (fun rows ->
        let r = Session.query s rows in
        {
          values = r.C4cam.Driver.values;
          indices = r.C4cam.Driver.indices;
          scores = r.C4cam.Driver.scores;
        });
    stats = (fun () -> Session.stats s);
    serve_section = (fun () -> Session.serve_section s);
  }
