(* Cut one function's text back out of the source: a function starts at
   its "def" line and runs until the next "def" or EOF. Compiling the
   excerpt reuses the single-kernel driver unchanged, so every stage and
   invariant is identical to the homogeneous path. *)
let source_of_func source name =
  let lines = String.split_on_char '\n' source in
  let starts_def l =
    let l = String.trim l in
    String.length l > 4 && String.sub l 0 4 = "def "
  in
  let name_of l =
    let l = String.trim l in
    match String.index_opt l '(' with
    | Some i -> String.trim (String.sub l 4 (i - 4))
    | None -> ""
  in
  let rec collect acc inside = function
    | [] -> List.rev acc
    | l :: rest ->
        if starts_def l then
          if name_of l = name then collect (l :: acc) true rest
          else collect acc false rest
        else if inside then collect (l :: acc) true rest
        else collect acc false rest
  in
  String.concat "\n" (collect [] false lines) ^ "\n"

let compile_module ~specs source =
  let program =
    try Frontend.Tsparser.parse_program source with
    | Frontend.Tsparser.Parse_error e ->
        raise (Driver.Compile_error ("parse error: " ^ e))
  in
  List.map
    (fun (fn : Frontend.Ast.func) ->
      let spec =
        match List.assoc_opt fn.f_name specs with
        | Some s -> s
        | None ->
            raise
              (Driver.Compile_error
                 (Printf.sprintf
                    "no architecture specification for kernel %s"
                    fn.f_name))
      in
      Driver.compile ~spec (source_of_func source fn.f_name))
    program

type task = {
  t_compiled : Driver.compiled;
  t_queries : float array array;
  t_stored : float array array;
}

type outcome = {
  per_task : Driver.run_result list;
  latency : float;
  sequential_latency : float;
  energy : float;
}

(* Tasks are independent end to end — each runs on a private simulator —
   so fan them across the ambient domain pool. map_list positions
   results by index, which keeps per_task (and every fold below) in
   task order, byte-identical to the sequential execution. *)
let run_concurrent ?config tasks =
  let per_task =
    Parallel.map_list
      (fun t ->
        Driver.run_cam ?config t.t_compiled ~queries:t.t_queries
          ~stored:t.t_stored)
      tasks
  in
  {
    per_task;
    latency =
      List.fold_left
        (fun acc (r : Driver.run_result) -> Float.max acc r.latency)
        0. per_task;
    sequential_latency =
      List.fold_left
        (fun acc (r : Driver.run_result) -> acc +. r.latency)
        0. per_task;
    energy =
      List.fold_left
        (fun acc (r : Driver.run_result) -> acc +. r.energy)
        0. per_task;
  }

(* ---- placed execution (docs/PLACEMENT.md) ----------------------------

   Placement.choose decides where stages run; the runners below actually
   execute the split. Exactness is the load-bearing property: every
   executable split reproduces the all-CAM reference bit for bit,
   because all the data is integer-valued (sums stay below 2^53, so
   float arithmetic is exact in any association) and the host-side
   selection shares the simulator's comparator through Camsim.Topk.rows. *)

module P = Passes.Placement

let stages_of_info (info : Driver.kernel_info) =
  [
    P.Score { q = info.q; n = info.n; d = info.d; metric = info.metric };
    P.Select { q = info.q; n = info.n; k = info.k };
  ]

(* The selection direction the generated cam.select_best actually uses
   (cam-map flips it for the similarity metrics, where a larger score
   is a smaller CAM distance). *)
let effective_largest (c : Driver.compiled) =
  match
    Ir.Walk.collect_module
      (fun op -> String.equal op.Ir.Op.op_name Dialects.Cam.select_best_name)
      c.cam_ir
  with
  | op :: _ -> Ir.Attr.as_bool (Ir.Op.attr_exn op "largest")
  | [] ->
      raise
        (Driver.Compile_error
           "placement needs a top-k kernel (no cam.select_best found)")

let is_binary rows =
  Array.for_all (Array.for_all (fun v -> v = 0. || v = 1.)) rows

(* The CAM's distance representation, replicated on the host. Exact-cell
   Hamming is a mismatch count (any integer profile); Euclidean is the
   squared distance without the square root, accumulated in column
   order like the scalar kernel — exact for integer-valued data. *)
let host_scores (metric : Dialects.Cim.metric) ~queries ~stored =
  Array.map
    (fun (q : float array) ->
      Array.map
        (fun (s : float array) ->
          match metric with
          | Dot | Cosine | Hamming ->
              let d = ref 0 in
              Array.iteri (fun j qv -> if qv <> s.(j) then incr d) q;
              float_of_int !d
          | Euclidean ->
              let d = ref 0. in
              Array.iteri
                (fun j qv ->
                  let diff = s.(j) -. qv in
                  d := !d +. (diff *. diff))
                q;
              !d)
        stored)
    queries

(* Which placements the runner can execute bit-exactly, beyond what the
   cost model considers legal:
   - (Cam, Host) needs a scores-form kernel, which the fusion patterns
     provide for the dot and cosine metrics only;
   - (Xbar, Host) computes dot products and recovers the CAM's Hamming
     distances as |q| + |s| - 2 q.s, exact only for 0/1 data. *)
let executable_placed (info : Driver.kernel_info) ~binary assignment =
  match assignment with
  | [ P.Cam; P.Cam ] -> true
  | [ P.Cam; P.Host ] -> (
      match info.metric with Dot | Cosine -> true | Euclidean | Hamming -> false)
  | [ P.Xbar; P.Host ] -> info.metric = Dialects.Cim.Dot && binary
  | [ P.Host; P.Host ] -> true
  | _ -> false

type placed_result = {
  pr_values : float array array;
  pr_indices : int array array;
  pr_assignment : P.assignment;
  pr_placement : string;
  pr_candidates : int;
  pr_stage_costs : (string * P.device * P.cost) list;
  pr_movement : P.cost;
  pr_moved_bytes : int;
  pr_latency : float;
  pr_energy : float;
  pr_cam : Driver.run_result option;
}

let fold_placed_profile (config : Driver.Run_config.t) r =
  match config.profile with
  | None -> ()
  | Some p ->
      let per_device project =
        List.sort_uniq compare (List.map (fun (_, d, _) -> d) r.pr_stage_costs)
        |> List.map (fun d ->
               ( P.device_name d,
                 List.fold_left
                   (fun acc (_, d', c) -> if d' = d then acc +. project c else acc)
                   0. r.pr_stage_costs ))
      in
      Instrument.Collect.set_placement p
        {
          Instrument.Profile.placement = r.pr_placement;
          place_objective = P.objective_name config.place_objective;
          candidates = r.pr_candidates;
          device_latency_s = per_device (fun (c : P.cost) -> c.latency);
          device_energy_j = per_device (fun (c : P.cost) -> c.energy);
          moved_bytes = r.pr_moved_bytes;
          move_latency_s = r.pr_movement.latency;
          move_energy_j = r.pr_movement.energy;
        }

(* Crossbar tile geometry for a [k x n] weight block: the default
   128x128 tiles when they divide the problem, one full-size tile
   otherwise (crossbar-map requires exact tiling). *)
let xspec_for ~k ~n =
  let fit dflt dim = if dim mod dflt = 0 then dflt else dim in
  {
    Xbar.default_spec with
    tile_rows = fit Xbar.default_spec.tile_rows k;
    tile_cols = fit Xbar.default_spec.tile_cols n;
  }

let xbar_matmul ?tech ~m:_ ~inputs ~weights () =
  let rows_k = Array.length weights in
  let cols_n = if rows_k = 0 then 0 else Array.length weights.(0) in
  let xspec = xspec_for ~k:rows_k ~n:cols_n in
  let xc =
    Driver.compile_crossbar ~xspec
      (Workloads.Kernels.matmul ~m:(Array.length inputs) ~k:rows_k ~n:cols_n)
  in
  let xr = Driver.run_crossbar ?tech xc ~inputs ~weights in
  (xr.Driver.product, { P.latency = xr.x_latency; energy = xr.x_energy })

let transpose rows =
  let n = Array.length rows in
  if n = 0 then [||]
  else Array.init (Array.length rows.(0)) (fun j -> Array.init n (fun i -> rows.(i).(j)))

let row_l1 (r : float array) = Array.fold_left ( +. ) 0. r

let assignment_of_config (config : Driver.Run_config.t) ~models ~stages
    ~filter =
  match config.placement with
  | `Cam -> P.single stages P.Cam
  | `Fixed (score_dev, select_dev) -> [ score_dev; select_dev ]
  | `Auto ->
      (P.choose ~objective:config.place_objective ~filter models stages)
        .p_assignment

let run_placed ?(config = Driver.Run_config.default) (c : Driver.compiled)
    ~queries ~stored =
  let info = c.info in
  if info.output <> `Topk then
    raise (Driver.Compile_error "run_placed expects a top-k kernel");
  let stages = stages_of_info info in
  let binary = is_binary queries && is_binary stored in
  let filter = executable_placed info ~binary in
  let models = P.default_models ?tech:config.tech c.spec in
  let assignment = assignment_of_config config ~models ~stages ~filter in
  if not (P.legal stages assignment && filter assignment) then
    raise
      (Driver.Compile_error
         (Printf.sprintf "placement %s is not executable for this kernel"
            (P.assignment_name stages assignment)));
  let candidates = List.filter filter (P.enumerate stages) in
  let cut = List.nth assignment 0 <> List.nth assignment 1 in
  let moved_bytes = if cut then P.stage_out_bytes (List.hd stages) else 0 in
  let movement = P.movement_cost models ~bytes:moved_bytes in
  let host_select dist =
    Camsim.Topk.rows ~dist ~k:info.k ~largest:(effective_largest c)
  in
  let gpu_select () =
    P.stage_cost models (List.nth stages 1) P.Host
  in
  let finish ~values ~indices ~stage_costs ~cam =
    let total =
      List.fold_left (fun acc (_, _, c) -> P.add acc c) movement stage_costs
    in
    let r =
      {
        pr_values = values;
        pr_indices = indices;
        pr_assignment = assignment;
        pr_placement = P.assignment_name stages assignment;
        pr_candidates = List.length candidates;
        pr_stage_costs = stage_costs;
        pr_movement = movement;
        pr_moved_bytes = moved_bytes;
        pr_latency = total.P.latency;
        pr_energy = total.P.energy;
        pr_cam = cam;
      }
    in
    fold_placed_profile config r;
    r
  in
  match assignment with
  | [ P.Cam; P.Cam ] ->
      let r = Driver.run_cam ~config c ~queries ~stored in
      (* One device run covers both stages; report it on the score row
         so the select row carries only the periphery's modeled cost. *)
      let select =
        P.stage_cost models
          (P.Select { q = info.q; n = info.n; k = info.k })
          P.Cam
      in
      let score =
        { P.latency = Float.max 0. (r.latency -. select.latency);
          energy = Float.max 0. (r.energy -. select.energy);
        }
      in
      finish ~values:r.values ~indices:r.indices
        ~stage_costs:[ ("score", P.Cam, score); ("select", P.Cam, select) ]
        ~cam:(Some r)
  | [ P.Cam; P.Host ] ->
      let scores_source =
        match info.metric with
        | Dot ->
            Workloads.Kernels.hdc_dot_scores ~q:info.q ~dims:info.d ~classes:info.n
        | Cosine -> Workloads.Kernels.cosine_scores ~q:info.q ~dims:info.d ~n:info.n
        | _ -> assert false
      in
      let sc = Driver.compile ~spec:c.spec scores_source in
      let r = Driver.run_cam ~config sc ~queries ~stored in
      let dist =
        match r.scores with
        | Some s -> s
        | None -> raise (Driver.Compile_error "scores kernel returned no scores")
      in
      let values, indices = host_select dist in
      finish ~values ~indices
        ~stage_costs:
          [ ("score", P.Cam, { P.latency = r.latency; energy = r.energy });
            ("select", P.Host, gpu_select ());
          ]
        ~cam:(Some r)
  | [ P.Xbar; P.Host ] ->
      (* dot products on the crossbar, then the CAM's Hamming distances
         recovered exactly for 0/1 data: h = |q| + |s| - 2 q.s *)
      let dots, xcost =
        xbar_matmul ~m:info.q ~inputs:queries ~weights:(transpose stored) ()
      in
      let sl1 = Array.map row_l1 stored in
      let dist =
        Array.mapi
          (fun qi (row : float array) ->
            let ql1 = row_l1 queries.(qi) in
            Array.mapi (fun j dot -> ql1 +. sl1.(j) -. (2. *. dot)) row)
          dots
      in
      let values, indices = host_select dist in
      finish ~values ~indices
        ~stage_costs:
          [ ("score", P.Xbar, xcost); ("select", P.Host, gpu_select ()) ]
        ~cam:None
  | [ P.Host; P.Host ] ->
      let dist = host_scores info.metric ~queries ~stored in
      let values, indices = host_select dist in
      let score = P.stage_cost models (List.hd stages) P.Host in
      finish ~values ~indices
        ~stage_costs:
          [ ("score", P.Host, score); ("select", P.Host, gpu_select ()) ]
        ~cam:None
  | _ ->
      raise
        (Driver.Compile_error
           (Printf.sprintf "placement %s has no runner"
              (P.assignment_name stages assignment)))

(* ---- the RecSys pipeline (Section II-C) ------------------------------

   users x items: a GEMV projection of binary user features through a
   binary item matrix, then a Euclidean similarity search over the
   projected prototype profiles. Three stages, three fabrics — the
   workload the placement pass exists for. The prototype embeddings are
   computed host-side at database-build time (like CAM row programming,
   charged to whoever executes the score stage). *)

type recsys_stage = {
  rs_stage : string;
  rs_device : P.device;
  rs_cost : P.cost;
}

type recsys_outcome = {
  rc_assignment : P.assignment;
  rc_placement : string;
  rc_candidates : int;
  rc_values : float array array;
  rc_indices : int array array;
  rc_accuracy : float;
  rc_latency : float;
  rc_energy : float;
  rc_stages : recsys_stage list;
  rc_movement : P.cost;
  rc_moved_bytes : int;
  rc_cam : Driver.run_result option;
}

let recsys_stages (data : Workloads.Recsys.t) ~k =
  let q = Array.length data.users in
  let f = Array.length data.items in
  let d = if f = 0 then 0 else Array.length data.items.(0) in
  let n = Array.length data.prototypes in
  [
    P.Gemv { m = q; k = f; n = d };
    P.Score { q; n; d; metric = Dialects.Cim.Euclidean };
    P.Select { q; n; k };
  ]

(* Every legal recsys assignment is executable except (score=cam,
   select=host): there is no Euclidean scores-form fusion pattern, so
   the CAM cannot hand raw distances back to the host. *)
let executable_recsys = function
  | [ _; P.Cam; P.Host ] -> false
  | _ -> true

let cam_spec_for_recsys (spec : Archspec.Spec.t) =
  { spec with cam_kind = Archspec.Spec.Mcam }

let run_recsys ?(config = Driver.Run_config.default) ~spec
    ~(data : Workloads.Recsys.t) ~k ?assignment () =
  let stages = recsys_stages data ~k in
  let q = Array.length data.users in
  let f = Array.length data.items in
  let d = if f = 0 then 0 else Array.length data.items.(0) in
  let n = Array.length data.prototypes in
  let cam_spec = cam_spec_for_recsys spec in
  let models = P.default_models ?tech:config.tech cam_spec in
  let assignment =
    match assignment with
    | Some a -> a
    | None ->
        assignment_of_config config ~models ~stages ~filter:executable_recsys
  in
  if not (P.legal stages assignment && executable_recsys assignment) then
    raise
      (Driver.Compile_error
         (Printf.sprintf "recsys placement %s is not executable"
            (P.assignment_name stages assignment)));
  let candidates = List.filter executable_recsys (P.enumerate stages) in
  let stored_embeddings = Workloads.Recsys.project data data.prototypes in
  let gemv_dev = List.nth assignment 0 in
  let score_dev = List.nth assignment 1 in
  let select_dev = List.nth assignment 2 in
  let embeddings, gemv_cost =
    match gemv_dev with
    | P.Xbar -> xbar_matmul ~m:q ~inputs:data.users ~weights:data.items ()
    | P.Host ->
        ( Workloads.Recsys.project data data.users,
          P.stage_cost models (List.hd stages) P.Host )
    | P.Cam -> assert false
  in
  let cam_run = ref None in
  let values, indices, score_cost, select_cost =
    match (score_dev, select_dev) with
    | P.Cam, P.Cam ->
        let compiled =
          Driver.compile ~spec:cam_spec
            (Workloads.Kernels.knn_euclidean ~q ~dims:d ~n ~k)
        in
        let r =
          Driver.run_cam ~config compiled ~queries:embeddings
            ~stored:stored_embeddings
        in
        cam_run := Some r;
        let select = P.stage_cost models (P.Select { q; n; k }) P.Cam in
        let score =
          { P.latency = Float.max 0. (r.latency -. select.latency);
            energy = Float.max 0. (r.energy -. select.energy);
          }
        in
        (r.values, r.indices, score, select)
    | P.Host, P.Host ->
        let dist =
          host_scores Dialects.Cim.Euclidean ~queries:embeddings
            ~stored:stored_embeddings
        in
        let values, indices = Camsim.Topk.rows ~dist ~k ~largest:false in
        ( values,
          indices,
          P.stage_cost models (List.nth stages 1) P.Host,
          P.stage_cost models (List.nth stages 2) P.Host )
    | _ -> assert false
  in
  let rec movement bytes_costs = function
    | (s1, d1) :: ((_, d2) :: _ as rest) ->
        let b = if d1 <> d2 then P.stage_out_bytes s1 else 0 in
        movement (bytes_costs + b) rest
    | _ -> bytes_costs
  in
  let moved_bytes =
    movement 0 (List.combine stages assignment)
  in
  let move = P.movement_cost models ~bytes:moved_bytes in
  let stage_costs =
    [
      ("gemv", gemv_dev, gemv_cost);
      ("score", score_dev, score_cost);
      ("select", select_dev, select_cost);
    ]
  in
  let total =
    List.fold_left (fun acc (_, _, c) -> P.add acc c) move stage_costs
  in
  let correct = ref 0 in
  Array.iteri
    (fun i (row : int array) ->
      if Array.length row > 0 && row.(0) = data.labels.(i) then incr correct)
    indices;
  let r =
    {
      rc_assignment = assignment;
      rc_placement = P.assignment_name stages assignment;
      rc_candidates = List.length candidates;
      rc_values = values;
      rc_indices = indices;
      rc_accuracy = float_of_int !correct /. float_of_int (max 1 q);
      rc_latency = total.P.latency;
      rc_energy = total.P.energy;
      rc_stages =
        List.map
          (fun (s, dv, c) -> { rs_stage = s; rs_device = dv; rs_cost = c })
          stage_costs;
      rc_movement = move;
      rc_moved_bytes = moved_bytes;
      rc_cam = !cam_run;
    }
  in
  (match config.profile with
  | None -> ()
  | Some p ->
      let per_device project =
        List.sort_uniq compare (List.map (fun (_, dv, _) -> dv) stage_costs)
        |> List.map (fun dv ->
               ( P.device_name dv,
                 List.fold_left
                   (fun acc (_, dv', c) ->
                     if dv' = dv then acc +. project c else acc)
                   0. stage_costs ))
      in
      Instrument.Collect.set_placement p
        {
          Instrument.Profile.placement = r.rc_placement;
          place_objective = P.objective_name config.place_objective;
          candidates = r.rc_candidates;
          device_latency_s = per_device (fun (c : P.cost) -> c.latency);
          device_energy_j = per_device (fun (c : P.cost) -> c.energy);
          moved_bytes = r.rc_moved_bytes;
          move_latency_s = move.P.latency;
          move_energy_j = move.P.energy;
        });
  r
