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
   executable split reproduces the all-CAM reference results bit for
   bit, because all the data is integer-valued (sums stay below 2^53, so
   float arithmetic is exact in any association) and the host-side
   selection shares the simulator's comparator through Camsim.Topk.rows.
   Costs are the simulators' own: a CAM or crossbar segment is priced by
   its kernel's ledger (Driver.price), and an executed split reports the
   ledgers its kernels charged, composed by the same Placement.price. *)

module P = Passes.Placement

let stages_of_info (info : Driver.kernel_info) =
  P.Score { q = info.q; n = info.n; d = info.d; metric = info.metric }
  ::
  (match info.output with
  | `Topk -> [ P.Select { q = info.q; n = info.n; k = info.k } ]
  | `Scores -> [])

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

(* The one run-time condition on a legal split: a crossbar score yields
   dot products, and the CAM's Hamming distances are recovered as
   |q| + |s| - 2 q.s, exact only for 0/1 data. *)
let executable_placed ~queries ~stored = function
  | P.Xbar :: _ -> is_binary queries && is_binary stored
  | _ -> true

(* The scores form of a top-k kernel's metric: what a CAM score stage
   runs when its selection happens on the host. *)
let scores_kernel (c : Driver.compiled) =
  let { Driver.q; n; d; metric; _ } = c.info in
  let source =
    match metric with
    | Dot -> Workloads.Kernels.hdc_dot_scores ~q ~dims:d ~classes:n
    | Cosine -> Workloads.Kernels.cosine_scores ~q ~dims:d ~n
    | Euclidean | Hamming ->
        raise (Driver.Compile_error "no scores-form kernel for this metric")
  in
  Driver.compile ~spec:c.spec source

(* Crossbar tile geometry for a [k x n] weight block: the default
   128x128 tiles when they divide the problem, one full-size tile
   otherwise (crossbar-map requires exact tiling). *)
let crossbar_kernel ~m ~k ~n =
  let fit dflt dim = if dim mod dflt = 0 then dflt else dim in
  let xspec =
    {
      Xbar.default_spec with
      tile_rows = fit Xbar.default_spec.tile_rows k;
      tile_cols = fit Xbar.default_spec.tile_cols n;
    }
  in
  Driver.compile_crossbar ~xspec (Workloads.Kernels.matmul ~m ~k ~n)

let cam_cost (r : Driver.run_result) =
  { P.latency = r.latency; energy = r.energy }

let xbar_cost (r : Driver.crossbar_result) =
  { P.latency = r.x_latency; energy = r.x_energy }

let models ?tech (c : Driver.compiled) =
  let xbar_stage stage =
    let m, k, n =
      match stage with
      | P.Gemv { m; k; n } -> (m, k, n)
      | P.Score { q; n; d; _ } -> (q, d, n)
      | P.Select _ -> invalid_arg "Hetero.models: no crossbar selection"
    in
    xbar_cost (Driver.price_crossbar (crossbar_kernel ~m ~k ~n))
  in
  (* Candidates share segments (every split of a recsys pipeline with
     the GEMV on the crossbar prices that one GEMV), so each (device,
     stages) segment is price-run once per [models] value. *)
  let memo = Hashtbl.create 8 in
  let rec cost device stages =
    match Hashtbl.find_opt memo (device, stages) with
    | Some c -> c
    | None ->
        let c = run device stages in
        Hashtbl.add memo (device, stages) c;
        c
  and run device stages =
    match (device, stages) with
    | P.Cam, _ when stages = stages_of_info c.info ->
        cam_cost (Driver.price ?tech c)
    | P.Cam, [ P.Score _ ] -> cam_cost (Driver.price ?tech (scores_kernel c))
    | P.Xbar, [ stage ] -> xbar_stage stage
    | P.Xbar, first :: rest ->
        List.fold_left
          (fun acc s -> P.add acc (cost P.Xbar [ s ]))
          (cost P.Xbar [ first ]) rest
    | _ -> invalid_arg "Hetero.models: no kernel runs this segment"
  in
  P.default_models cost

let xbar_matmul ~inputs ~weights =
  let k = Array.length weights in
  let n = if k = 0 then 0 else Array.length weights.(0) in
  let r =
    Driver.run_crossbar
      (crossbar_kernel ~m:(Array.length inputs) ~k ~n)
      ~inputs ~weights
  in
  (r.product, xbar_cost r)

let transpose rows =
  let n = Array.length rows in
  if n = 0 then [||]
  else Array.init (Array.length rows.(0)) (fun j -> Array.init n (fun i -> rows.(i).(j)))

let row_l1 (r : float array) = Array.fold_left ( +. ) 0. r

let assignment_of_config (config : Driver.Run_config.t) models stages ~filter
    =
  let assignment =
    match config.placement with
    | `Cam -> P.single stages P.Cam
    | `Fixed a -> a
    | `Auto ->
        (P.choose ~objective:config.place_objective ~filter models stages)
          .p_assignment
  in
  if List.length assignment <> List.length stages then
    raise
      (Driver.Compile_error
         (Printf.sprintf "placement pins %d devices; the pipeline has %d stages"
            (List.length assignment) (List.length stages)));
  if not (P.legal stages assignment && filter assignment) then
    raise
      (Driver.Compile_error
         (Printf.sprintf "placement %s is not executable for this kernel"
            (P.assignment_name stages assignment)));
  assignment

type placed_result = {
  pr_values : float array array;
  pr_indices : int array array;
  pr_placement : string;
  pr_candidates : int;
  pr_priced : P.priced;
  pr_cam : Driver.run_result option;
}

(* Compose an executed split: each device segment costs what its kernel
   charged in this run ([ran]), the host stages and the movement what
   Placement prices them at. *)
let finish (config : Driver.Run_config.t) models stages assignment ~filter
    ~ran ~values ~indices ~cam =
  let priced =
    P.price
      { models with P.device_cost = (fun d _ -> List.assoc d ran) }
      stages assignment
  in
  let r =
    {
      pr_values = values;
      pr_indices = indices;
      pr_placement = P.assignment_name stages assignment;
      pr_candidates = List.length (List.filter filter (P.enumerate stages));
      pr_priced = priced;
      pr_cam = cam;
    }
  in
  Option.iter
    (fun p ->
      let segments = priced.p_segments in
      let per_device project =
        List.sort_uniq compare (List.map (fun (_, d, _) -> d) segments)
        |> List.map (fun d ->
               ( P.device_name d,
                 List.fold_left
                   (fun acc (_, d', c) -> if d' = d then acc +. project c else acc)
                   0. segments ))
      in
      Instrument.Collect.set_placement p
        {
          Instrument.Profile.placement = r.pr_placement;
          place_objective = P.objective_name config.place_objective;
          candidates = r.pr_candidates;
          device_latency_s = per_device (fun (c : P.cost) -> c.latency);
          device_energy_j = per_device (fun (c : P.cost) -> c.energy);
          moved_bytes = priced.p_moved_bytes;
          move_latency_s = priced.p_movement.latency;
          move_energy_j = priced.p_movement.energy;
        })
    config.profile;
  r

let run_placed ?(config = Driver.Run_config.default) (c : Driver.compiled)
    ~queries ~stored =
  let info = c.info in
  if info.output <> `Topk then
    raise (Driver.Compile_error "run_placed expects a top-k kernel");
  let stages = stages_of_info info in
  let filter = executable_placed ~queries ~stored in
  let models = models ?tech:config.tech c in
  let assignment = assignment_of_config config models stages ~filter in
  let host_select dist =
    Camsim.Topk.rows ~dist ~k:info.k ~largest:(effective_largest c)
  in
  let (values, indices), ran, cam =
    match assignment with
    | [ P.Cam; P.Cam ] ->
        let r = Driver.run_cam ~config c ~queries ~stored in
        ((r.values, r.indices), [ (P.Cam, cam_cost r) ], Some r)
    | [ P.Cam; P.Host ] ->
        let r = Driver.run_cam ~config (scores_kernel c) ~queries ~stored in
        (host_select (Option.get r.scores), [ (P.Cam, cam_cost r) ], Some r)
    | [ P.Xbar; P.Host ] ->
        (* dot products on the crossbar, then the CAM's Hamming
           distances recovered exactly for 0/1 data *)
        let dots, cost =
          xbar_matmul ~inputs:queries ~weights:(transpose stored)
        in
        let sl1 = Array.map row_l1 stored in
        let dist =
          Array.mapi
            (fun qi (row : float array) ->
              let ql1 = row_l1 queries.(qi) in
              Array.mapi (fun j dot -> ql1 +. sl1.(j) -. (2. *. dot)) row)
            dots
        in
        (host_select dist, [ (P.Xbar, cost) ], None)
    | _ ->
        (* [Host; Host], the one legal split left *)
        (host_select (host_scores info.metric ~queries ~stored), [], None)
  in
  finish config models stages assignment ~filter ~ran ~values ~indices ~cam

(* ---- the RecSys pipeline (Section II-C) ------------------------------

   users x items: a GEMV projection of binary user features through a
   binary item matrix, then a Euclidean similarity search over the
   projected prototype profiles. Three stages, three fabrics — the
   workload the placement pass exists for. The prototype embeddings are
   computed host-side at database-build time (like CAM row programming,
   charged to whoever executes the score stage). *)

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

(* The CAM score stage needs multi-bit distances: an MCAM cell. *)
let recsys_kernel ~spec ~data ~k =
  match recsys_stages data ~k with
  | [ _; P.Score { q; d; n; _ }; _ ] ->
      Driver.compile
        ~spec:{ spec with Archspec.Spec.cam_kind = Archspec.Spec.Mcam }
        (Workloads.Kernels.knn_euclidean ~q ~dims:d ~n ~k)
  | _ -> assert false

let run_recsys ?(config = Driver.Run_config.default) ~spec
    ~(data : Workloads.Recsys.t) ~k () =
  let stages = recsys_stages data ~k in
  let knn = recsys_kernel ~spec ~data ~k in
  let models = models ?tech:config.tech knn in
  let filter _ = true in
  let assignment = assignment_of_config config models stages ~filter in
  let stored = Workloads.Recsys.project data data.prototypes in
  let queries, gemv_ran =
    match assignment with
    | P.Xbar :: _ ->
        let e, cost = xbar_matmul ~inputs:data.users ~weights:data.items in
        (e, [ (P.Xbar, cost) ])
    | _ -> (Workloads.Recsys.project data data.users, [])
  in
  let (values, indices), ran, cam =
    match assignment with
    | [ _; P.Cam; _ ] ->
        let r = Driver.run_cam ~config knn ~queries ~stored in
        ((r.values, r.indices), (P.Cam, cam_cost r) :: gemv_ran, Some r)
    | _ ->
        let dist = host_scores Dialects.Cim.Euclidean ~queries ~stored in
        (Camsim.Topk.rows ~dist ~k ~largest:false, gemv_ran, None)
  in
  finish config models stages assignment ~filter ~ran ~values ~indices ~cam
