(* Cost-model-driven heterogeneous placement.

   A compiled kernel is abstracted into a short pipeline of stages —
   an optional GEMV-shaped prelude, a similarity (distance) stage, and
   a top-k selection — and each stage can run on one of three fabrics:
   the CAM fabric (lib/camsim), the resistive crossbar (lib/xbar), or
   the host (priced by the lib/gpu_model roofline). This module
   enumerates the legal device assignments, prices every candidate
   with the backends' own latency/energy models plus explicit
   data-movement costs at the cut points, and picks the winner under a
   configurable objective. Execution of the chosen split lives in
   Hetero (lib/core); here is only the model. *)

let pass_name = "cim-place"

type device = Cam | Xbar | Host

let device_name = function Cam -> "cam" | Xbar -> "xbar" | Host -> "host"

type objective = Latency | Energy | Edp

let objective_name = function
  | Latency -> "latency"
  | Energy -> "energy"
  | Edp -> "edp"

let objective_of_string = function
  | "latency" -> Ok Latency
  | "energy" -> Ok Energy
  | "edp" -> Ok Edp
  | s -> Error ("unknown objective: " ^ s)

(* The stage vocabulary mirrors what the cim pipeline can actually
   produce: matmul preludes stay GEMV-shaped, fused similarity ops
   carry (q, n, d, metric), and selection is separable because the
   simulator's select_best runs on the merged distance buffer. *)
type stage =
  | Gemv of { m : int; k : int; n : int }
  | Score of { q : int; n : int; d : int; metric : Dialects.Cim.metric }
  | Select of { q : int; n : int; k : int }

type assignment = device list

type link = { bw : float; e_per_byte : float; t_fixed : float }

(* PCIe-class interconnect between any two distinct fabrics. *)
let default_link = { bw = 16e9; e_per_byte = 10e-12; t_fixed = 1e-6 }

type models = {
  cam_spec : Archspec.Spec.t;
  cam_tech : Camsim.Tech.t;
  xbar_spec : Xbar.spec;
  xbar_tech : Xbar.tech;
  gpu : Gpu_model.t;
  link : link;
}

let default_models ?(tech = Camsim.Tech.fefet_45nm_v2) cam_spec =
  {
    cam_spec;
    cam_tech = tech;
    xbar_spec = Xbar.default_spec;
    xbar_tech = Xbar.reram_28nm;
    gpu = Gpu_model.quadro_rtx6000;
    link = default_link;
  }

type cost = { latency : float; energy : float }

let zero = { latency = 0.; energy = 0. }
let add a b = { latency = a.latency +. b.latency; energy = a.energy +. b.energy }

type priced = {
  p_assignment : assignment;
  p_stages : (stage * device * cost) list;
  p_movement : cost;
  p_moved_bytes : int;
  p_total : cost;
}

(* ---------- legality ---------- *)

(* Per-stage legality; the CAM-select constraint (selection can only
   stay on the CAM periphery when the distances were produced there)
   is positional and checked in [legal]. *)
let stage_devices stage =
  match stage with
  | Gemv _ -> [ Xbar; Host ]
  | Score { metric; _ } ->
      if metric = Dialects.Cim.Dot then [ Cam; Xbar; Host ]
      else [ Cam; Host ]
  | Select _ -> [ Cam; Host ]

let legal stages assignment =
  List.length stages = List.length assignment
  && List.for_all2 (fun s d -> List.mem d (stage_devices s)) stages assignment
  && fst
       (List.fold_left2
          (fun (ok, prev) stage d ->
            let ok =
              ok
              &&
              match stage with
              | Select _ -> d <> Cam || prev = Some Cam
              | _ -> true
            in
            (ok, Some d))
          (true, None) stages assignment)

let enumerate stages =
  let rec go = function
    | [] -> [ [] ]
    | stage :: rest ->
        let tails = go rest in
        List.concat_map
          (fun d -> List.map (fun t -> d :: t) tails)
          (stage_devices stage)
  in
  List.filter (legal stages) (go stages)

(* The conventional single-backend mapping: the device everywhere it
   is legal, host for the rest. *)
let single stages device =
  let rec go prev = function
    | [] -> []
    | stage :: rest ->
        let d =
          if
            List.mem device (stage_devices stage)
            && (match stage with Select _ -> device <> Cam || prev = Cam | _ -> true)
          then device
          else Host
        in
        d :: go d rest
  in
  go Host stages

(* ---------- pricing ---------- *)

let ceil_div a b = (a + b - 1) / b

(* CAM similarity chain, identical in structure to the generated inner
   loop (and to Validate.manual_similarity): every tile pays
   write + search + merge, sequential levels multiply by the busiest
   unit's occupancy, allocated levels pay per-query I/O energy. *)
let cam_score_cost m ~q ~n ~d =
  let spec = m.cam_spec and tech = m.cam_tech in
  let tile_rows = min n spec.rows in
  let row_chunks = ceil_div n tile_rows in
  let col_chunks = ceil_div d spec.cols in
  let tiles = row_chunks * col_chunks in
  let batches = Cim_partition.batches_for spec ~stored_rows:n in
  let slots = ceil_div tiles batches in
  let arrays = ceil_div slots spec.subarrays_per_array in
  let mats = ceil_div arrays spec.arrays_per_mat in
  let banks = ceil_div mats spec.mats_per_bank in
  let bits = spec.bits in
  let write = Camsim.Energy_model.write tech ~bits ~cols:spec.cols ~rows:tile_rows in
  let search =
    Camsim.Energy_model.search tech ~bits ~cols:spec.cols ~active_rows:tile_rows
      ~physical_rows:spec.rows ~kind:`Best ~queries:q
      ~batch_extra:(batches > 1) ()
  in
  let merge = Camsim.Energy_model.merge tech ~elems:(q * tile_rows) in
  let tile_latency = write.Camsim.Energy_model.latency +. search.latency +. merge.latency in
  let subarray_latency = float_of_int batches *. tile_latency in
  let level lat mode busiest =
    match (mode : Archspec.Spec.access_mode) with
    | Sequential -> lat *. float_of_int busiest
    | Parallel -> lat
  in
  let per_array =
    level subarray_latency spec.subarray_mode (min spec.subarrays_per_array slots)
  in
  let per_mat = level per_array spec.array_mode (min spec.arrays_per_mat arrays) in
  let per_bank = level per_mat spec.mat_mode (min spec.mats_per_bank mats) in
  let all_banks = level per_bank spec.bank_mode banks in
  let overhead lvl count =
    (Camsim.Energy_model.level_overhead tech ~level:lvl ~queries:q).energy
    *. float_of_int count
  in
  let energy =
    (float_of_int tiles *. (write.energy +. search.energy +. merge.energy))
    +. overhead `Bank banks +. overhead `Mat mats +. overhead `Array arrays
  in
  { latency = all_banks; energy }

let cam_select_cost m ~q ~n ~k =
  let c = Camsim.Energy_model.select m.cam_tech ~elems_per_query:n ~k ~queries:q in
  { latency = c.Camsim.Energy_model.latency; energy = c.energy }

let xbar_matmul_cost m ~rows ~k ~n =
  let w = Xbar.write_cost ~tech:m.xbar_tech m.xbar_spec ~k ~n in
  let g = Xbar.gemv_cost ~tech:m.xbar_tech m.xbar_spec ~m:rows ~k ~n in
  {
    latency = w.Xbar.latency +. g.Xbar.latency;
    energy = w.Xbar.energy +. g.Xbar.energy;
  }

let of_gpu (c : Gpu_model.cost) = { latency = c.latency; energy = c.energy }

let stage_cost m stage device =
  match (stage, device) with
  | Gemv { m = rows; k; n }, Xbar -> xbar_matmul_cost m ~rows ~k ~n
  | Gemv { m = rows; k; n }, Host ->
      of_gpu (Gpu_model.matmul m.gpu ~m:rows ~k ~n ~elem_bytes:4)
  | Gemv _, Cam -> invalid_arg "Placement.stage_cost: gemv is not CAM-mappable"
  | Score { q; n; d; _ }, Cam -> cam_score_cost m ~q ~n ~d
  | Score { q; n; d; metric }, Xbar ->
      if metric <> Dialects.Cim.Dot then
        invalid_arg "Placement.stage_cost: only dot scores map to the crossbar";
      (* Q . S^T as a q x d by d x n product, S programmed as weights. *)
      xbar_matmul_cost m ~rows:q ~k:d ~n
  | Score { q; n; d; _ }, Host ->
      of_gpu (Gpu_model.similarity m.gpu ~queries:q ~stored:n ~dims:d)
  | Select { q; n; k }, Cam -> cam_select_cost m ~q ~n ~k
  | Select { q; n; k }, Host ->
      of_gpu (Gpu_model.topk m.gpu ~rows:q ~cols:n ~k ~elem_bytes:4)
  | Select _, Xbar ->
      invalid_arg "Placement.stage_cost: selection is not crossbar-mappable"

(* Bytes crossing a cut = the producing stage's output (f32). *)
let stage_out_bytes = function
  | Gemv { m; n; _ } -> 4 * m * n
  | Score { q; n; _ } -> 4 * q * n
  | Select { q; k; _ } -> 2 * 4 * q * k

let movement_cost m ~bytes =
  if bytes = 0 then zero
  else
    {
      latency = m.link.t_fixed +. (float_of_int bytes /. m.link.bw);
      energy = float_of_int bytes *. m.link.e_per_byte;
    }

let price m stages assignment =
  if not (legal stages assignment) then
    invalid_arg "Placement.price: illegal assignment";
  let p_stages =
    List.map2 (fun s d -> (s, d, stage_cost m s d)) stages assignment
  in
  let rec cuts = function
    | (s1, d1, _) :: ((_, d2, _) :: _ as rest) ->
        (if d1 <> d2 then stage_out_bytes s1 else 0) + cuts rest
    | _ -> 0
  in
  let p_moved_bytes = cuts p_stages in
  let p_movement = movement_cost m ~bytes:p_moved_bytes in
  let p_total =
    List.fold_left (fun acc (_, _, c) -> add acc c) p_movement p_stages
  in
  { p_assignment = assignment; p_stages; p_movement; p_moved_bytes; p_total }

let objective_value objective c =
  match objective with
  | Latency -> c.latency
  | Energy -> c.energy
  | Edp -> c.latency *. c.energy

(* Deterministic argmin: enumeration order is fixed, strict improvement
   keeps the earliest winner. *)
let choose ?(objective = Energy) ?(filter = fun _ -> true) m stages =
  let candidates = List.filter filter (enumerate stages) in
  match candidates with
  | [] -> invalid_arg "Placement.choose: no legal assignment"
  | first :: rest ->
      List.fold_left
        (fun best a ->
          let pa = price m stages a in
          if
            objective_value objective pa.p_total
            < objective_value objective best.p_total
          then pa
          else best)
        (price m stages first) rest

(* ---------- presentation ---------- *)

let stage_label = function
  | Gemv { m; k; n } -> Printf.sprintf "gemv[%dx%dx%d]" m k n
  | Score { q; n; d; metric } ->
      Printf.sprintf "score[%dx%d d=%d %s]" q n d
        (Ir.Attr.as_sym (Dialects.Cim.metric_to_attr metric))
  | Select { q; n; k } -> Printf.sprintf "select[%dx%d k=%d]" q n k

let short_label = function
  | Gemv _ -> "gemv"
  | Score _ -> "score"
  | Select _ -> "select"

let assignment_name stages assignment =
  String.concat " "
    (List.map2
       (fun s d -> short_label s ^ "=" ^ device_name d)
       stages assignment)

let table ?(objective = Energy) m stages =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "stages: %s\nobjective: %s\n\n"
       (String.concat " -> " (List.map stage_label stages))
       (objective_name objective));
  Buffer.add_string buf
    (Printf.sprintf "%-34s %14s %14s %10s %14s\n" "assignment" "latency_s"
       "energy_j" "moved_b" "objective");
  let priced = List.map (price m stages) (enumerate stages) in
  let best = choose ~objective m stages in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-34s %14.6e %14.6e %10d %14.6e%s\n"
           (assignment_name stages p.p_assignment)
           p.p_total.latency p.p_total.energy p.p_moved_bytes
           (objective_value objective p.p_total)
           (if p.p_assignment = best.p_assignment then "  <- chosen" else "")))
    priced;
  Buffer.contents buf

(* ---------- the IR pass ---------- *)

(* Annotate every fused similarity op with the chosen devices so later
   stages (and `c4cam passes`) can see the placement decision in the
   printed IR. Stage extraction is shape-based and lenient: anything
   that does not look like a fused similarity is left untouched. *)
let dims_of v = Ir.Types.shape (v.Ir.Value.ty)

let stages_of_similarity (op : Ir.Op.t) =
  let metric =
    match Ir.Op.attr op "metric" with
    | Some a -> Dialects.Cim.metric_of_attr a
    | None -> Dialects.Cim.Dot
  in
  let k =
    match Ir.Op.attr op "k" with Some a -> Ir.Attr.as_int a | None -> 1
  in
  match (dims_of (Ir.Op.operand op 0), dims_of (Ir.Op.operand op 1)) with
  | q_shape, [ n; d ] when List.length q_shape >= 1 ->
      let q = List.fold_left ( * ) 1 q_shape / max 1 d in
      let q = max 1 q in
      Some ([ Score { q; n; d; metric }; Select { q; n; k } ], q, n, d)
  | _ -> None

let annotate ~objective m (op : Ir.Op.t) =
  let is_sim =
    List.mem op.op_name
      [
        Dialects.Cim.similarity_name;
        Dialects.Cim.partitioned_similarity_name;
      ]
  in
  let is_scores = String.equal op.op_name Dialects.Cim.similarity_scores_name in
  if is_sim then (
    match stages_of_similarity op with
    | Some (stages, _, _, _) ->
        let best = choose ~objective m stages in
        List.iter2
          (fun stage d ->
            let key =
              match stage with
              | Score _ -> "place_score"
              | Select _ -> "place_select"
              | Gemv _ -> "place_gemv"
            in
            Ir.Op.set_attr op key (Ir.Attr.Sym (device_name d)))
          stages best.p_assignment
    | None -> ())
  else if is_scores then
    match stages_of_similarity op with
    | Some ([ score; _ ], _, _, _) ->
        let best = choose ~objective m [ score ] in
        Ir.Op.set_attr op "place_score"
          (Ir.Attr.Sym (device_name (List.hd best.p_assignment)))
    | _ -> ()

let pass ?(objective = Energy) spec =
  let m = default_models spec in
  Ir.Pass.make pass_name (fun modul ->
      Ir.Walk.iter_module (annotate ~objective m) modul;
      modul)
