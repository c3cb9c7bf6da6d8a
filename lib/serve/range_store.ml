exception Store_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Store_error s)) fmt

(* One contiguous slice of the box table, served by a session over
   its own ACAM module with the slice's bounds pinned. *)
type shard = {
  offset : int;  (** first global box id of this slice *)
  boxes : int;
  session : Session.t;
}

type t = {
  st_set : shard Shard_set.t;
  st_shards : shard array;
  st_boxes : int;
  st_dims : int;
}

type result = {
  matches : int array;
  values : float array array;
  indices : int array array;
  latency : float;
  energy : float;
}

let boxes t = t.st_boxes
let dims t = t.st_dims
let shards t = Array.length t.st_shards

(* One shard's best (violations, global box id) per query row, read
   out of its session's [q x 1] outputs. *)
let shard_search sh batch =
  let f =
    try Session.query_flat sh.session batch
    with Session.Serve_error e -> raise (Store_error e)
  in
  let total = Array.length batch in
  let values = Array.make total [||] and indices = Array.make total [||] in
  let g = ref 0 in
  List.iter
    (function
      | [ v; i ] ->
          Array.iter2
            (fun v (i : int array) ->
              values.(!g) <- v;
              indices.(!g) <- [| sh.offset + i.(0) |];
              incr g)
            (Interp.Rtval.to_rows v) (Interp.Rtval.to_int_rows i)
      | _ -> fail "internal: range kernel returned no selection")
    f.Session.outputs;
  Session.release sh.session f;
  {
    Shard_set.values;
    indices;
    latency = f.Session.latency;
    energy = f.Session.energy;
  }

let create ?(config = C4cam.Driver.Run_config.default) ?(shards = 1)
    ?(spec = Archspec.Spec.square 32 Archspec.Spec.Base) ~q ~lo ~hi () =
  let n_boxes = Array.length lo in
  if n_boxes = 0 || Array.length hi <> n_boxes then
    fail "need matching non-empty lo/hi tables (got %d/%d rows)" n_boxes
      (Array.length hi);
  let n_dims = Array.length lo.(0) in
  Array.iteri
    (fun r lo_r ->
      if
        not
          (Session.valid_row n_dims lo_r
          && Session.valid_row n_dims hi.(r))
      then fail "box %d needs %d finite bounds per side" r n_dims)
    lo;
  if q < 1 then fail "query arity must be >= 1 (got %d)" q;
  if shards < 1 || shards > n_boxes then
    fail "shard count %d not in [1, %d boxes]" shards n_boxes;
  let shard_config = Shard_set.shard_config config in
  let base = n_boxes / shards and rem = n_boxes mod shards in
  let next = ref 0 in
  let mk_shard i =
    let boxes = base + if i < rem then 1 else 0 in
    let offset = !next in
    next := offset + boxes;
    let spec = C4cam.Acam.fit_spec ~base:spec ~boxes ~dims:n_dims () in
    let compiled = C4cam.Acam.compile ~spec ~q ~boxes ~dims:n_dims in
    {
      offset;
      boxes;
      session =
        Session.of_acam ~config:shard_config compiled
          ~lo:(Array.sub lo offset boxes) ~hi:(Array.sub hi offset boxes);
    }
  in
  let st_shards = Array.init shards mk_shard in
  {
    st_set =
      Shard_set.create ~config ~k:1
        ~err:(fun e -> Store_error e)
        ~session:(fun sh -> sh.session)
        ~rows:(fun () -> (n_boxes, 0))
        ~search:shard_search st_shards;
    st_shards;
    st_boxes = n_boxes;
    st_dims = n_dims;
  }

let update_box t ~row ~lo ~hi =
  if row < 0 || row >= t.st_boxes then
    fail "box %d out of range [0, %d)" row t.st_boxes;
  if
    not
      (Session.valid_row t.st_dims lo && Session.valid_row t.st_dims hi)
  then fail "update_box: bounds must be %d finite values" t.st_dims;
  let sh =
    (* contiguous slices: the owner is the shard whose window holds row *)
    Array.to_seq t.st_shards
    |> Seq.find (fun s -> row >= s.offset && row < s.offset + s.boxes)
    |> Option.get
  in
  (* the owning session reprograms the changed row on its next batch *)
  Session.update_table sh.session ~table:0 ~row:(row - sh.offset) lo;
  Session.update_table sh.session ~table:1 ~row:(row - sh.offset) hi

let query t batch =
  let { Shard_set.values; indices; latency; energy } =
    Shard_set.query t.st_set batch
  in
  let matches = Workloads.Range_filter.decode ~values ~indices in
  { matches; values; indices; latency; energy }

let stats t = Shard_set.session_stats t.st_set
let device_stats t = Shard_set.device_stats t.st_set

let backend t =
  Shard_set.backend t.st_set (fun rows ->
      let r = query t rows in
      {
        Backend.values = r.values;
        indices = Array.map (fun m -> [| m |]) r.matches;
        scores = None;
      })
