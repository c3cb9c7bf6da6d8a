(* A CAM store larger than one device: rows partitioned across N
   private simulators, queries fanned out over the Parallel domain
   pool, per-shard candidates reduced through a top-k merge tree.
   See docs/SHARDING.md for the layout, allocator, and determinism
   contract.

   Each shard owns a Session over a scores-form kernel
   (Kernels.hdc_dot_scores): the device returns the full distance
   matrix and selection happens host-side in (distance, external id)
   order. A device-side topk would tie-break on physical row slots,
   which diverge from insertion order once freed slots are reused —
   and binary rows tie constantly.

   Not thread-safe: like Session, one caller (or the server's
   scheduler domain) at a time. *)

exception Store_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Store_error s)) fmt

type shard = {
  sh_session : Session.t;
  sh_cap : int;
  sh_ext : int array;  (* slot -> external id, -1 = free *)
  (* FIFO ring of free slots: freed slots are reused oldest-first,
     in the style of an address-encoded free-row CAM *)
  sh_free : int array;
  mutable sh_free_head : int;
  mutable sh_free_len : int;
  (* selection output, reused while the batch shape holds: the shard
     set copies a shard's candidates out before its next search *)
  mutable sh_vals : float array array;  (* total x k_sel *)
  mutable sh_ids : int array array;
}

type t = {
  st_set : shard Shard_set.t;
  st_shards : shard array;
  st_k : int;
  st_d : int;
  st_locs : (int, int * int) Hashtbl.t;  (* ext id -> (shard, slot) *)
  mutable st_next_ext : int;
  mutable st_cursor : int;  (* round-robin insert shard *)
}

type result = Shard_set.result = {
  values : float array array;  (* total x k distances, best first *)
  indices : int array array;  (* the matching external ids *)
  latency : float;  (* slowest shard's simulated time this call *)
  energy : float;  (* summed simulated energy delta across shards *)
}

type shard_info = {
  info_rows : int;
  info_free : int;
  info_write_ops : int;
  info_energy_j : float;
}

type stats = {
  shards : int;
  rows_stored : int;
  rows_free : int;
  capacity : int;
  session : Session.stats;  (* aggregated, session-shaped *)
  fanout_wall_s : float;
  merge_wall_s : float;
  per_shard : shard_info array;
}

let live shards =
  Array.fold_left (fun a sh -> a + sh.sh_cap - sh.sh_free_len) 0 shards

let rows_stored t = live t.st_shards
let capacity t = Array.fold_left (fun a sh -> a + sh.sh_cap) 0 t.st_shards
let rows_free t = capacity t - rows_stored t

(* ---- per-shard selection ---------------------------------------------- *)

(* The [k_sel] best live slots of one query row into [vals]/[ids],
   ascending in (distance, external id): a bounded insertion over the
   row read in place — slot [s]'s distance at [data.(base + s*cs)] —
   that skips free slots (external id -1). Once the list is full, a
   distance above its last candidate's is rejected before the slot's
   id is looked up. *)
let select_row ext ~k_sel data ~base ~cs (vals : float array) ids =
  let m = ref 0 in
  if k_sel > 0 then
    for s = 0 to Array.length ext - 1 do
      let v = Array.unsafe_get data (base + (s * cs)) in
      if !m < k_sel || not (v > Array.unsafe_get vals (k_sel - 1)) then begin
        let e = Array.unsafe_get ext s in
        if e >= 0 then begin
          (* insert at [j] once [(v, e)] no longer beats the candidate
             before it; the last one falls off a full list *)
          let j = ref !m in
          while
            !j > 0
            &&
            let c = Float.compare v (Array.unsafe_get vals (!j - 1)) in
            c < 0 || (c = 0 && e < Array.unsafe_get ids (!j - 1))
          do
            if !j < k_sel then begin
              Array.unsafe_set vals !j (Array.unsafe_get vals (!j - 1));
              Array.unsafe_set ids !j (Array.unsafe_get ids (!j - 1))
            end;
            decr j
          done;
          if !j < k_sel then begin
            Array.unsafe_set vals !j v;
            Array.unsafe_set ids !j e;
            if !m < k_sel then incr m
          end
        end
      end
    done

(* One shard's candidates for a batch: [k] best slots per query row
   (fewer only when the shard holds fewer live rows), in ascending
   (distance, external id) order, selected straight from the kernel's
   row-major score buffers. *)
let shard_query ~k sh batch =
  let f =
    try Session.query_flat sh.sh_session batch
    with Session.Serve_error e -> raise (Store_error e)
  in
  let total = Array.length batch in
  let k_sel = min k (sh.sh_cap - sh.sh_free_len) in
  if
    Array.length sh.sh_vals <> total
    || (total > 0 && Array.length sh.sh_vals.(0) <> k_sel)
  then begin
    sh.sh_vals <- Array.make_matrix total k_sel 0.;
    sh.sh_ids <- Array.make_matrix total k_sel 0
  end;
  let g = ref 0 in
  List.iter
    (fun outputs ->
      match outputs with
      | [
       Interp.Rtval.Buffer
         {
           b_shape = [ q; n ];
           b_strides = [ rs; cs ];
           b_offset;
           b_data;
         };
      ]
        when n = sh.sh_cap ->
          for i = 0 to q - 1 do
            select_row sh.sh_ext ~k_sel b_data
              ~base:(b_offset + (i * rs))
              ~cs sh.sh_vals.(!g) sh.sh_ids.(!g);
            incr g
          done
      | _ -> fail "internal: shard kernel returned no score matrix")
    f.Session.outputs;
  Session.release sh.sh_session f;
  {
    values = sh.sh_vals;
    indices = sh.sh_ids;
    latency = f.Session.latency;
    energy = f.Session.energy;
  }

let create ?(config = C4cam.Driver.Run_config.default) ~spec ~q ~d ~k
    ~shards ~capacity () =
  if shards < 1 then fail "shards must be >= 1 (got %d)" shards;
  if k < 1 then fail "k must be >= 1 (got %d)" k;
  if capacity < k then fail "capacity %d < top-k %d" capacity k;
  (* Per-shard capacity: even split rounded up, then up again to a
     multiple of the subarray row count so cim-partition's divisibility
     constraint holds when a shard spans row chunks. *)
  let base = (capacity + shards - 1) / shards in
  let cap =
    if base <= spec.Archspec.Spec.rows then base
    else
      (base + spec.Archspec.Spec.rows - 1)
      / spec.Archspec.Spec.rows * spec.Archspec.Spec.rows
  in
  let source = Workloads.Kernels.hdc_dot_scores ~q ~dims:d ~classes:cap in
  (* One compile for all shards: every shard shares the (source, spec)
     pair, so the artifact cache makes this a single pipeline run. *)
  let artifact =
    Artifact_cache.lookup
      ?profile:config.C4cam.Driver.Run_config.profile ~spec source
  in
  let shard_config = Shard_set.shard_config config in
  (* every slot starts as the same all-zero row; buffer_of_rows copies,
     so the aliasing costs one row, not cap *)
  let zeros = Array.make cap (Array.make d 0.) in
  let mk_shard _ =
    {
      sh_session =
        (try
           Session.create ~config:shard_config ~artifact ~spec
             ~stored:zeros source
         with Session.Serve_error e -> raise (Store_error e));
      sh_cap = cap;
      sh_ext = Array.make cap (-1);
      sh_free = Array.init cap Fun.id;
      sh_free_head = 0;
      sh_free_len = cap;
      sh_vals = [||];
      sh_ids = [||];
    }
  in
  let st_shards = Array.init shards mk_shard in
  let set =
    Shard_set.create ~config ~k
      ~err:(fun e -> Store_error e)
      ~session:(fun sh -> sh.sh_session)
      ~rows:(fun () ->
        let n = live st_shards in
        (n, (shards * cap) - n))
      ~search:(shard_query ~k) st_shards
  in
  {
    st_set = set;
    st_shards;
    st_k = k;
    st_d = d;
    st_locs = Hashtbl.create 1024;
    st_next_ext = 0;
    st_cursor = 0;
  }

(* ---- the free-row allocator ------------------------------------------- *)

let insert t row =
  if not (Session.valid_row t.st_d row) then
    fail "insert: expected %d finite values" t.st_d;
  let n = Array.length t.st_shards in
  let rec find i =
    if i = n then fail "store is full (%d rows)" (capacity t)
    else
      let s = (t.st_cursor + i) mod n in
      if t.st_shards.(s).sh_free_len > 0 then s else find (i + 1)
  in
  let si = find 0 in
  t.st_cursor <- (si + 1) mod n;
  let sh = t.st_shards.(si) in
  let slot = sh.sh_free.(sh.sh_free_head) in
  sh.sh_free_head <- (sh.sh_free_head + 1) mod sh.sh_cap;
  sh.sh_free_len <- sh.sh_free_len - 1;
  let ext = t.st_next_ext in
  t.st_next_ext <- ext + 1;
  sh.sh_ext.(slot) <- ext;
  Hashtbl.replace t.st_locs ext (si, slot);
  (* only the owning shard's pinned buffer changes: its next replay
     rewrites (and charges write energy for) exactly this row *)
  Session.update_stored sh.sh_session ~row:slot row;
  ext

let locate t ext what =
  match Hashtbl.find_opt t.st_locs ext with
  | Some loc -> loc
  | None -> fail "%s: unknown row id %d" what ext

let delete t ext =
  let si, slot = locate t ext "delete" in
  Hashtbl.remove t.st_locs ext;
  let sh = t.st_shards.(si) in
  (* the device row keeps its stale contents — free slots are filtered
     host-side at selection time, so no write is charged for a delete *)
  sh.sh_ext.(slot) <- -1;
  sh.sh_free.((sh.sh_free_head + sh.sh_free_len) mod sh.sh_cap) <- slot;
  sh.sh_free_len <- sh.sh_free_len + 1

let update t ext row =
  if not (Session.valid_row t.st_d row) then
    fail "update: expected %d finite values" t.st_d;
  let si, slot = locate t ext "update" in
  Session.update_stored t.st_shards.(si).sh_session ~row:slot row

(* ---- query, stats ----------------------------------------------------- *)

let query t batch =
  let rows = rows_stored t in
  if rows < t.st_k then
    fail "top-%d query needs at least %d live rows (have %d)" t.st_k
      t.st_k rows;
  Shard_set.query t.st_set batch

let device_stats t = Shard_set.device_stats t.st_set

let stats t =
  {
    shards = Array.length t.st_shards;
    rows_stored = rows_stored t;
    rows_free = rows_free t;
    capacity = capacity t;
    session = Shard_set.session_stats t.st_set;
    fanout_wall_s = Shard_set.fanout_wall_s t.st_set;
    merge_wall_s = Shard_set.merge_wall_s t.st_set;
    per_shard =
      Array.map
        (fun sh ->
          let s =
            Camsim.Simulator.stats (Session.simulator sh.sh_session)
          in
          {
            info_rows = sh.sh_cap - sh.sh_free_len;
            info_free = sh.sh_free_len;
            info_write_ops = s.Camsim.Stats.n_write_ops;
            info_energy_j = Camsim.Stats.total_energy s;
          })
        t.st_shards;
  }

let backend t =
  Shard_set.backend t.st_set (fun rows ->
      let r = query t rows in
      { Backend.values = r.values; indices = r.indices; scores = None })
