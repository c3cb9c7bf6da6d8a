exception Store_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Store_error s)) fmt

(* One contiguous slice of the box table on its own simulator, with the
   bounds pinned into interpreter buffers so replay can diff them in
   place (the [Session] pattern, applied to [cam.write_range]). *)
type shard = {
  sh_offset : int;  (** first global box id of this slice *)
  sh_boxes : int;
  sh_compiled : C4cam.Acam.compiled;
  sh_sim : Camsim.Simulator.t;
  sh_qcache : Interp.Ops.Qcache.t;
  sh_lo : float array array;  (** arity mirrors; contents live in bufs *)
  sh_hi : float array array;
  sh_lo_buf : Interp.Rtval.buffer;
  sh_hi_buf : Interp.Rtval.buffer;
  sh_qbuf : Interp.Rtval.buffer;
  mutable sh_ops : (string * int) list;  (** cumulative, merged *)
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

(* One shard's best (violations, global box id) per query row. Its
   q-chunks run in order against its own simulator: each is blitted
   into the pinned query buffer, replays the recorded setup (free when
   the bounds are unchanged) and pays for its search. The shard's time
   for the batch is the sum over its chunks. *)
let shard_search ~q ~dims sh batch =
  let energy () =
    Camsim.Stats.total_energy (Camsim.Simulator.stats sh.sh_sim)
  in
  let e0 = energy () and total = Array.length batch in
  let values = Array.make total [||] and indices = Array.make total [||] in
  let latency = ref 0. and dst = sh.sh_qbuf.Interp.Rtval.b_data in
  for c = 0 to (total / q) - 1 do
    let chunk = Array.sub batch (c * q) q in
    Array.iteri (fun i row -> Array.blit row 0 dst (i * dims) dims) chunk;
    Interp.Ops.Qcache.invalidate sh.sh_qcache dst;
    let r =
      Session.replay sh.sh_sim @@ fun () ->
      C4cam.Acam.execute ~sim:sh.sh_sim ~qcache:sh.sh_qcache
        ~lo_value:(Interp.Rtval.Buffer sh.sh_lo_buf)
        ~hi_value:(Interp.Rtval.Buffer sh.sh_hi_buf)
        ~query_value:(Interp.Rtval.Buffer sh.sh_qbuf) sh.sh_compiled
        ~lo:sh.sh_lo ~hi:sh.sh_hi ~queries:chunk
    in
    latency := !latency +. r.C4cam.Acam.latency;
    sh.sh_ops <- Session.merge_counts sh.sh_ops r.C4cam.Acam.ops_executed;
    Array.blit r.C4cam.Acam.values 0 values (c * q) q;
    Array.iteri
      (fun i (row : int array) ->
        indices.((c * q) + i) <- [| sh.sh_offset + row.(0) |])
      r.C4cam.Acam.indices
  done;
  {
    Shard_set.values;
    indices;
    latency = !latency;
    energy = energy () -. e0;
  }

let create ?(config = C4cam.Driver.Run_config.default) ?shards
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
  let n_shards =
    Option.value shards ~default:config.C4cam.Driver.Run_config.shards
  in
  if n_shards < 1 || n_shards > n_boxes then
    fail "shard count %d not in [1, %d boxes]" n_shards n_boxes;
  let shard_config = Shard_set.shard_config config in
  let base = n_boxes / n_shards and rem = n_boxes mod n_shards in
  let offset = ref 0 in
  let mk_shard i =
    let sh_boxes = base + if i < rem then 1 else 0 in
    let sh_offset = !offset in
    offset := !offset + sh_boxes;
    let sh_lo = Array.sub lo sh_offset sh_boxes in
    let sh_hi = Array.sub hi sh_offset sh_boxes in
    let spec = C4cam.Acam.fit_spec ~base:spec ~boxes:sh_boxes ~dims:n_dims () in
    let compiled = C4cam.Acam.compile ~spec ~q ~boxes:sh_boxes ~dims:n_dims in
    let sim = C4cam.Driver.create_sim shard_config spec in
    Camsim.Simulator.set_query_hint sim q;
    Camsim.Simulator.start_recording sim;
    let lo_buf = Interp.Rtval.buffer_of_rows sh_lo in
    let hi_buf = Interp.Rtval.buffer_of_rows sh_hi in
    (* the pinned bounds change only through [update_box], which marks
       what it writes *)
    Camsim.Simulator.track sim lo_buf.Interp.Rtval.b_data;
    Camsim.Simulator.track sim hi_buf.Interp.Rtval.b_data;
    let qbuf = Interp.Rtval.fresh_buffer [ q; n_dims ] in
    {
      sh_offset;
      sh_boxes;
      sh_compiled = compiled;
      sh_sim = sim;
      sh_qcache = Interp.Ops.Qcache.create ();
      sh_lo;
      sh_hi;
      sh_lo_buf = lo_buf;
      sh_hi_buf = hi_buf;
      sh_qbuf = qbuf;
      sh_ops = [];
    }
  in
  let st_shards = Array.init n_shards mk_shard in
  {
    st_set =
      Shard_set.create ~config ~q ~d:n_dims ~k:1 ~cache:`Miss
        ~err:(fun e -> Store_error e)
        ~sim:(fun sh -> sh.sh_sim)
        ~ops:(fun sh -> sh.sh_ops)
        ~rows:(fun () -> (n_boxes, 0))
        ~search:(shard_search ~q ~dims:n_dims)
        st_shards;
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
    |> Seq.find (fun s -> row >= s.sh_offset && row < s.sh_offset + s.sh_boxes)
    |> Option.get
  in
  let off = (row - sh.sh_offset) * t.st_dims in
  List.iter
    (fun (src, (buf : Interp.Rtval.buffer)) ->
      Array.blit src 0 buf.b_data off t.st_dims;
      Camsim.Simulator.mark sh.sh_sim buf.b_data ~off ~len:t.st_dims;
      Interp.Ops.Qcache.invalidate sh.sh_qcache buf.b_data)
    [ (lo, sh.sh_lo_buf); (hi, sh.sh_hi_buf) ]

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
