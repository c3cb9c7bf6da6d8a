type measurement = {
  config : string;
  latency : float;
  energy : float;
  power : float;
  edp : float;
  accuracy : float;
  subarrays : int;
  banks : int;
  search_ops : int;
  query_cycles : int;
  write_ops : int;
  kernel_binary : int;
  kernel_nibble : int;
  kernel_generic : int;
  kernel_early_exit : int;
  n_ops_executed : int;
}

let config_name (spec : Archspec.Spec.t) =
  Printf.sprintf "cam-%s %dx%d"
    (Archspec.Spec.optimization_to_string spec.optimization)
    spec.rows spec.cols

let measurement_of (spec : Archspec.Spec.t) (r : Driver.run_result)
    ~accuracy =
  {
    config = config_name spec;
    latency = r.latency;
    energy = r.energy;
    power = r.power;
    edp = r.energy *. r.latency;
    accuracy;
    subarrays = r.stats.n_subarrays;
    banks = r.stats.n_banks;
    search_ops = r.stats.n_search_ops;
    query_cycles = r.stats.n_query_cycles;
    write_ops = r.stats.n_write_ops;
    kernel_binary = r.stats.n_kernel_binary;
    kernel_nibble = r.stats.n_kernel_nibble;
    kernel_generic = r.stats.n_kernel_generic;
    kernel_early_exit = r.stats.n_kernel_early_exit;
    n_ops_executed =
      List.fold_left (fun acc (_, n) -> acc + n) 0 r.ops_executed;
  }

let zero_measurement config =
  {
    config;
    latency = 0.;
    energy = 0.;
    power = 0.;
    edp = 0.;
    accuracy = 0.;
    subarrays = 0;
    banks = 0;
    search_ops = 0;
    query_cycles = 0;
    write_ops = 0;
    kernel_binary = 0;
    kernel_nibble = 0;
    kernel_generic = 0;
    kernel_early_exit = 0;
    n_ops_executed = 0;
  }

(* A placed run's measurement: the split's totals for the headline
   numbers, the underlying CAM run's activity counters when the score
   stage actually executed there (zeros otherwise — the crossbar and
   host have no CAM ledger). *)
let placed_measurement (spec : Archspec.Spec.t)
    (pr : Hetero.placed_result) ~accuracy =
  let config = config_name spec ^ " " ^ pr.pr_placement in
  let base =
    match pr.pr_cam with
    | Some r -> measurement_of spec r ~accuracy
    | None -> zero_measurement config
  in
  let { Passes.Placement.latency; energy } = pr.pr_priced.p_total in
  {
    base with
    config;
    latency;
    energy;
    power = (if latency > 0. then energy /. latency else 0.);
    edp = energy *. latency;
    accuracy;
  }

let top1_accuracy indices labels =
  let correct = ref 0 in
  Array.iteri
    (fun i (row : int array) -> if row.(0) = labels.(i) then incr correct)
    indices;
  float_of_int !correct /. float_of_int (Array.length labels)

let hdc ?config ?bits ~(spec : Archspec.Spec.t)
    ~(data : Workloads.Hdc.synthetic) () =
  let spec =
    match bits with Some b -> { spec with bits = b } | None -> spec
  in
  let q = Array.length data.queries in
  let classes = Array.length data.stored in
  let dims = Array.length data.stored.(0) in
  let source = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let compiled = Driver.compile ~spec source in
  let r =
    Driver.run_cam ?config compiled ~queries:data.queries ~stored:data.stored
  in
  measurement_of spec r
    ~accuracy:(top1_accuracy r.indices data.query_labels)

(* Candidate configurations are independent end to end — each call
   compiles its own module and runs it on a private Simulator.t — so
   the sweep maps across the ambient domain pool. map_list positions
   results by index, which keeps the output order (and therefore every
   downstream report) identical to the sequential sweep. *)
let hdc_sweep ?config ?bits ~(specs : Archspec.Spec.t list)
    ~(data : Workloads.Hdc.synthetic) () =
  Parallel.map_list (fun spec -> hdc ?config ?bits ~spec ~data ()) specs

(* Sweep the executable placements of the HDC kernel on one
   architecture: every (score, select) split the runner can reproduce
   bit-exactly, each reporting the ledgers its run charged. Same
   parallel-map determinism argument as hdc_sweep — each placement
   compiles its own module and runs a private simulator. *)
let placement_sweep ?(config = Driver.Run_config.default)
    ~(spec : Archspec.Spec.t) ~(data : Workloads.Hdc.synthetic) () =
  let q = Array.length data.queries in
  let classes = Array.length data.stored in
  let dims = Array.length data.stored.(0) in
  let source = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let probe = Driver.compile ~spec source in
  let assignments =
    Passes.Placement.enumerate (Hetero.stages_of_info probe.info)
    |> List.filter
         (Hetero.executable_placed ~queries:data.queries ~stored:data.stored)
  in
  Parallel.map_list
    (fun assignment ->
      let config =
        Driver.Run_config.with_placement (`Fixed assignment) config
      in
      let compiled = Driver.compile ~spec source in
      let pr =
        Hetero.run_placed ~config compiled ~queries:data.queries
          ~stored:data.stored
      in
      placed_measurement spec pr
        ~accuracy:(top1_accuracy pr.pr_indices data.query_labels))
    assignments

(* ---- registry-driven measurement ---------------------------------------- *)

let measurement_of_stats (spec : Archspec.Spec.t) ~latency ~energy ~accuracy
    ~n_ops (s : Camsim.Stats.t) =
  {
    config = config_name spec;
    latency;
    energy;
    power = (if latency > 0. then energy /. latency else 0.);
    edp = energy *. latency;
    accuracy;
    subarrays = s.Camsim.Stats.n_subarrays;
    banks = s.Camsim.Stats.n_banks;
    search_ops = s.Camsim.Stats.n_search_ops;
    query_cycles = s.Camsim.Stats.n_query_cycles;
    write_ops = s.Camsim.Stats.n_write_ops;
    kernel_binary = s.Camsim.Stats.n_kernel_binary;
    kernel_nibble = s.Camsim.Stats.n_kernel_nibble;
    kernel_generic = s.Camsim.Stats.n_kernel_generic;
    kernel_early_exit = s.Camsim.Stats.n_kernel_early_exit;
    n_ops_executed = n_ops;
  }

(* Fold a pre-stage (device work done while building the instance — the
   MLP's layer-1 rule table) into a run's measurement: its simulated
   time/energy and activity counters ride on top of the kernel run's. *)
let add_pre (m : measurement) (pre : Workloads.Registry.pre_stage) =
  let latency = m.latency +. pre.Workloads.Registry.pre_latency in
  let energy = m.energy +. pre.Workloads.Registry.pre_energy in
  let s = pre.Workloads.Registry.pre_stats in
  {
    m with
    latency;
    energy;
    power = (if latency > 0. then energy /. latency else 0.);
    edp = energy *. latency;
    subarrays = m.subarrays + s.Camsim.Stats.n_subarrays;
    banks = m.banks + s.Camsim.Stats.n_banks;
    search_ops = m.search_ops + s.Camsim.Stats.n_search_ops;
    query_cycles = m.query_cycles + s.Camsim.Stats.n_query_cycles;
    write_ops = m.write_ops + s.Camsim.Stats.n_write_ops;
    kernel_binary = m.kernel_binary + s.Camsim.Stats.n_kernel_binary;
    kernel_nibble = m.kernel_nibble + s.Camsim.Stats.n_kernel_nibble;
    kernel_generic = m.kernel_generic + s.Camsim.Stats.n_kernel_generic;
    kernel_early_exit =
      m.kernel_early_exit + s.Camsim.Stats.n_kernel_early_exit;
  }

let measure ?config ~(spec : Archspec.Spec.t)
    ~(shape : Workloads.Registry.shape) (entry : Workloads.Registry.entry) =
  let spec = entry.Workloads.Registry.fix_spec shape spec in
  match entry.Workloads.Registry.exec with
  | Workloads.Registry.Kernel mk ->
      let ki = mk shape spec in
      let compiled = Driver.compile ~spec ki.Workloads.Registry.ki_source in
      let r =
        Driver.run_cam ?config compiled
          ~queries:ki.Workloads.Registry.ki_queries
          ~stored:ki.Workloads.Registry.ki_stored
      in
      let preds = ki.Workloads.Registry.ki_predict r.indices in
      let m =
        measurement_of spec r
          ~accuracy:
            (Workloads.Registry.accuracy
               ~expected:ki.Workloads.Registry.ki_labels preds)
      in
      Option.fold ~none:m ~some:(add_pre m) ki.Workloads.Registry.ki_pre
  | Workloads.Registry.Direct run ->
      let o = run shape spec in
      (* the workload drove the simulator itself: energy and activity
         counters come from its ledger; it has no latency model *)
      measurement_of_stats spec ~latency:0.
        ~energy:o.Workloads.Registry.do_energy
        ~accuracy:o.Workloads.Registry.do_accuracy ~n_ops:0
        o.Workloads.Registry.do_stats
  | Workloads.Registry.Range mk ->
      let ri = mk shape in
      let compiled =
        Acam.compile ~spec ~q:shape.Workloads.Registry.queries
          ~boxes:shape.Workloads.Registry.rows
          ~dims:shape.Workloads.Registry.dims
      in
      let r =
        Acam.run ?config compiled ~lo:ri.Workloads.Registry.ri_lo
          ~hi:ri.Workloads.Registry.ri_hi
          ~queries:ri.Workloads.Registry.ri_queries
      in
      measurement_of_stats spec ~latency:r.Acam.latency
        ~energy:r.Acam.energy
        ~accuracy:
          (Workloads.Registry.accuracy
             ~expected:ri.Workloads.Registry.ri_expected r.Acam.matches)
        ~n_ops:
          (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Acam.ops_executed)
        r.Acam.stats

(* Same determinism argument as hdc_sweep: every candidate builds its
   own instance, module and simulator, so the sweep fans out across the
   ambient pool with index-positioned results. *)
let registry_sweep ?config ~(specs : Archspec.Spec.t list)
    ~(shape : Workloads.Registry.shape) (entry : Workloads.Registry.entry) =
  Parallel.map_list (fun spec -> measure ?config ~spec ~shape entry) specs

let knn ?config ~(spec : Archspec.Spec.t) ~(train : Workloads.Dataset.t)
    ~queries ~labels ~k () =
  let spec = { spec with cam_kind = Archspec.Spec.Mcam } in
  let q = Array.length queries in
  let n = Workloads.Dataset.n_samples train in
  let dims = Workloads.Dataset.n_features train in
  let source = Workloads.Kernels.knn_euclidean ~q ~dims ~n ~k in
  let compiled = Driver.compile ~spec source in
  let r = Driver.run_cam ?config compiled ~queries ~stored:train.features in
  (* Majority vote over the k returned training indices. *)
  let correct = ref 0 in
  Array.iteri
    (fun i (row : int array) ->
      let votes = Array.make train.n_classes 0 in
      Array.iter
        (fun idx -> votes.(train.labels.(idx)) <- votes.(train.labels.(idx)) + 1)
        row;
      let best = ref 0 in
      Array.iteri (fun c v -> if v > votes.(!best) then best := c) votes;
      if !best = labels.(i) then incr correct)
    r.indices;
  measurement_of spec r
    ~accuracy:(float_of_int !correct /. float_of_int (Array.length labels))

let iso_capacity_spec ~side optimization =
  let spec = Archspec.Spec.square side optimization in
  Archspec.Spec.with_optimization
    { spec with subarrays_per_array = max 1 (65536 / (side * side)) }
    optimization

type gpu_comparison = {
  gpu_latency : float;
  gpu_energy : float;
  cam_latency : float;
  cam_energy : float;
  cam_system_energy : float;
  speedup : float;
  energy_improvement : float;
}

let gpu_comparison_hdc ?(gpu = Gpu_model.quadro_rtx6000)
    ?(system_power = 190.) ~spec ~(data : Workloads.Hdc.synthetic) () =
  let m = hdc ~spec ~data () in
  let g =
    Gpu_model.hdc_inference gpu
      ~queries:(Array.length data.queries)
      ~dims:(Array.length data.stored.(0))
      ~classes:(Array.length data.stored)
  in
  (* The paper compares whole CIM-system energy, in which the CAM arrays
     "contribute minimally": host + chip draw a near-constant envelope
     while the kernel runs, which is why the reported energy improvement
     tracks the speedup. We model that envelope explicitly. *)
  let cam_system_energy = m.energy +. (system_power *. m.latency) in
  {
    gpu_latency = g.latency;
    gpu_energy = g.energy;
    cam_latency = m.latency;
    cam_energy = m.energy;
    cam_system_energy;
    speedup = g.latency /. m.latency;
    energy_improvement = g.energy /. cam_system_energy;
  }
