type kernel_info = {
  q : int;
  n : int;
  d : int;
  k : int;
  metric : Dialects.Cim.metric;
  output : [ `Topk | `Scores ];
  query_arg : int;
  stored_arg : int;
}

type compiled = {
  spec : Archspec.Spec.t;
  source : string;
  torch_ir : Ir.Func_ir.modul;
  cim_ir : Ir.Func_ir.modul;
  cam_ir : Ir.Func_ir.modul;
  fn_name : string;
  info : kernel_info;
}

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

let clone_module m =
  Ir.Parser.parse_module (Ir.Printer.module_to_string m)

let arg_position (fn : Ir.Func_ir.func) (v : Ir.Value.t) =
  let rec go i = function
    | [] -> None
    | (a : Ir.Value.t) :: rest ->
        if Ir.Value.equal a v then Some i else go (i + 1) rest
  in
  go 0 fn.fn_args

let extract_info (m : Ir.Func_ir.modul) fn_name =
  let fn = Ir.Func_ir.find_func_exn m fn_name in
  let parts =
    Ir.Walk.collect
      (fun op ->
        String.equal op.Ir.Op.op_name
          Dialects.Cim.partitioned_similarity_name)
      fn
  in
  match parts with
  | [ p ] ->
      let ai key = Ir.Attr.as_int (Ir.Op.attr_exn p key) in
      let output =
        match Ir.Attr.as_sym (Ir.Op.attr_exn p "output") with
        | "topk" -> `Topk
        | _ -> `Scores
      in
      (* The query operand is either a function argument or a reshape of
         one (the batched-KNN squeeze). *)
      let rec arg_of (v : Ir.Value.t) =
        match arg_position fn v with
        | Some i -> i
        | None -> (
            match Ir.Walk.find_def fn v with
            | Some def when String.equal def.op_name Dialects.Cim.reshape_name
              ->
                arg_of (Ir.Op.operand def 0)
            | _ -> fail "cannot trace a kernel operand back to an argument")
      in
      {
        q = ai "q";
        n = ai "n";
        d = ai "d";
        k = ai "k";
        metric = Dialects.Cim.metric_of_attr (Ir.Op.attr_exn p "metric");
        output;
        query_arg = arg_of (Ir.Op.operand p 0);
        stored_arg = arg_of (Ir.Op.operand p 1);
      }
  | [] -> fail "no similarity pattern was recognised in the kernel"
  | _ -> fail "more than one similarity kernel per function is unsupported"

let run_passes ?profile passes m =
  try Ir.Pass.run_pipeline ~verify:true ?profile passes m with
  | Ir.Pass.Pass_error (p, msg) -> fail "pass %s: %s" p msg

let run_passes_traced ?profile passes m =
  try Ir.Pass.run_pipeline_traced ~verify:true ?profile passes m with
  | Ir.Pass.Pass_error (p, msg) -> fail "pass %s: %s" p msg

(* The cam level: map, cam-power when the spec asks, canonicalize. *)
let cam_passes ?q (spec : Archspec.Spec.t) =
  [ Passes.Cam_map.pass ?q spec ]
  @ (match spec.optimization with
    | Power | Power_density -> [ Passes.Cam_opt.power ]
    | Base | Density -> [])
  @ [ Passes.Canonicalize.pass ]

(* The frontend stage, timed into the profile collector when present. *)
let frontend ?profile source =
  let t0 = Instrument.Collect.now () in
  let torch_ir =
    try Frontend.Emit.compile_string source with
    | Frontend.Tsparser.Parse_error e -> fail "parse error: %s" e
    | Frontend.Emit.Emit_error e -> fail "frontend error: %s" e
  in
  Option.iter
    (fun p ->
      Instrument.Collect.set_frontend p
        (Float.max 0. (Instrument.Collect.now () -. t0)))
    profile;
  torch_ir

let compile_traced ?profile ~spec source =
  Dialects.Register_all.register_all ();
  (match Archspec.Spec.validate spec with
  | Ok () -> ()
  | Error e -> fail "invalid architecture spec: %s" e);
  let torch_ir = frontend ?profile source in
  let fn_name =
    match torch_ir.funcs with
    | [ f ] -> f.fn_name
    | _ -> fail "expected exactly one kernel function"
  in
  let cim_ir, cim_trace =
    run_passes_traced ?profile
      (Passes.Pipelines.cim_pipeline
      @ [ Passes.Cim_partition.expanded_pass spec ])
      (clone_module torch_ir)
  in
  let info = extract_info cim_ir fn_name in
  let cam_ir, cam_trace =
    run_passes_traced ?profile (cam_passes spec) (clone_module cim_ir)
  in
  ( { spec; source; torch_ir; cim_ir; cam_ir; fn_name; info },
    ("frontend", Ir.Printer.module_to_string torch_ir)
    :: List.map
         (fun (e : Ir.Pass.trace_entry) -> (e.after_pass, e.ir_text))
         (cim_trace @ cam_trace) )

let compile ?profile ~spec source =
  Dialects.Register_all.register_all ();
  (match Archspec.Spec.validate spec with
  | Ok () -> ()
  | Error e -> fail "invalid architecture spec: %s" e);
  let torch_ir = frontend ?profile source in
  let fn_name =
    match torch_ir.funcs with
    | [ f ] -> f.fn_name
    | _ -> fail "expected exactly one kernel function"
  in
  let cim_ir =
    run_passes ?profile
      (Passes.Pipelines.cim_pipeline @ [ Passes.Cim_partition.pass spec ])
      (clone_module torch_ir)
  in
  let info = extract_info cim_ir fn_name in
  let cam_ir = run_passes ?profile (cam_passes spec) (clone_module cim_ir) in
  { spec; source; torch_ir; cim_ir; cam_ir; fn_name; info }

(* cam-map builds its function fresh and only reads the cim module, so
   the artifact's [cim_ir], shared by every session of a cached
   artifact and read from worker domains, needs no copy; and one
   verify of the result stands in for one per pass. *)
let lower_rows c r =
  if r < 1 || r > c.info.q then
    invalid_arg
      (Printf.sprintf "Driver.lower_rows: %d query rows, expected 1..%d" r
         c.info.q);
  let m =
    try Ir.Pass.run_pipeline ~verify:false (cam_passes ~q:r c.spec) c.cim_ir
    with Ir.Pass.Pass_error (p, msg) -> fail "pass %s: %s" p msg
  in
  match Ir.Verifier.verify_module ~strict:false m with
  | Ok () -> m
  | Error e -> fail "lower_rows: %s" (Ir.Verifier.error_to_string e)

(* The cim level with its expanded tile program (Figure 5), on a copy. *)
let expanded_cim c = Passes.Cim_partition.expand (clone_module c.cim_ir)

let stage_texts c =
  [
    ("torch", Ir.Printer.module_to_string c.torch_ir);
    ("cim", Ir.Printer.module_to_string (expanded_cim c));
    ("cam", Ir.Printer.module_to_string c.cam_ir);
  ]

type run_result = {
  values : float array array;
  indices : int array array;
  scores : float array array option;
  latency : float;
  energy : float;
  power : float;
  stats : Camsim.Stats.t;
  ops_executed : (string * int) list;
}

(* ---- the unified run configuration ------------------------------------ *)

module Run_config = struct
  (* Where a placed pipeline's stages run: all-CAM (the homogeneous
     path), a cost-model decision, or a pinned device per stage.
     Honoured by Hetero's runners; [run_cam] itself is the all-CAM
     executor and ignores it. *)
  type placement =
    [ `Cam
    | `Auto
    | `Fixed of Passes.Placement.assignment ]

  type t = {
    profile : Instrument.Collect.t option;
    tech : Camsim.Tech.t option;
    defect_rate : float option;
    defect_seed : int option;
    trace : Camsim.Trace.t option;
    placement : placement;
    place_objective : Passes.Placement.objective;
  }

  let default =
    {
      profile = None;
      tech = None;
      defect_rate = None;
      defect_seed = None;
      trace = None;
      placement = `Cam;
      place_objective = Passes.Placement.Energy;
    }

  let with_profile p t = { t with profile = Some p }
  let with_tech tech t = { t with tech = Some tech }

  let with_defects ?seed rate t =
    {
      t with
      defect_rate = Some rate;
      defect_seed = (match seed with Some _ -> seed | None -> t.defect_seed);
    }

  let with_trace tr t = { t with trace = Some tr }

  let with_placement p t = { t with placement = p }
  let with_place_objective o t = { t with place_objective = o }
end

let create_sim (cfg : Run_config.t) spec =
  Camsim.Simulator.create ?tech:cfg.tech ?defect_rate:cfg.defect_rate
    ?defect_seed:cfg.defect_seed ?trace:cfg.trace spec

(* ---- the pieces [run_cam] composes -------------------------------------
   A serving session ([Serve.Session]) runs the compiled module against
   its own pinned simulator and buffers for every query batch, with the
   same operand order and decode. *)

let wrap_rows rows = Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows rows)

(* Order the two data operands according to the kernel's argument
   positions. *)
let kernel_args info ~queries ~stored =
  if info.query_arg < info.stored_arg then [ queries; stored ]
  else [ stored; queries ]

let decode_results info results =
  match (info.output, results) with
  | `Topk, [ v; i ] ->
      (Interp.Rtval.to_rows v, Interp.Rtval.to_int_rows i, None)
  | `Scores, [ s ] ->
      let rows = Interp.Rtval.to_rows s in
      (rows, [||], Some rows)
  | _ -> fail "unexpected result arity from the cam module"

(* Fold the simulator's activity ledger into the profile collector. *)
let fold_sim_stats profile ~latency ~energy ~ops_executed
    (s : Camsim.Stats.t) =
  Instrument.Collect.set_sim profile
    {
      Instrument.Profile.sim_latency_s = latency;
      sim_energy_j = energy;
      e_search = s.e_search;
      e_write = s.e_write;
      e_merge = s.e_merge;
      e_select = s.e_select;
      e_overhead = s.e_overhead;
      search_ops = s.n_search_ops;
      query_cycles = s.n_query_cycles;
      write_ops = s.n_write_ops;
      banks = s.n_banks;
      mats = s.n_mats;
      arrays = s.n_arrays;
      subarrays = s.n_subarrays;
      kernel_binary = s.n_kernel_binary;
      kernel_nibble = s.n_kernel_nibble;
      kernel_generic = s.n_kernel_generic;
      kernel_early_exit = s.n_kernel_early_exit;
      ops_executed;
    }

let run_cam ?(config = Run_config.default) c ~queries ~stored =
  if Array.length stored <> c.info.n then
    fail "expected %d stored rows, got %d" c.info.n (Array.length stored);
  if Array.length queries <> c.info.q then
    fail "expected %d query rows, got %d" c.info.q (Array.length queries);
  let sim = create_sim config c.spec in
  Camsim.Simulator.set_query_hint sim (Array.length queries);
  let outcome =
    try
      Interp.Machine.run ~sim c.cam_ir c.fn_name
        (kernel_args c.info ~queries:(wrap_rows queries)
           ~stored:(wrap_rows stored))
    with Interp.Machine.Runtime_error e -> fail "runtime error: %s" e
  in
  let stats = Camsim.Simulator.stats sim in
  let energy = Camsim.Stats.total_energy stats in
  let latency = outcome.latency in
  let values, indices, scores = decode_results c.info outcome.results in
  let r =
    {
      values;
      indices;
      scores;
      latency;
      energy;
      power = (if latency > 0. then energy /. latency else 0.);
      stats;
      ops_executed = outcome.ops_executed;
    }
  in
  Option.iter
    (fun p ->
      fold_sim_stats p ~latency:r.latency ~energy:r.energy
        ~ops_executed:r.ops_executed r.stats)
    config.profile;
  r

let zeros rows cols = Array.make_matrix rows cols 0.

let price ?tech c =
  run_cam
    ~config:{ Run_config.default with tech }
    c ~queries:(zeros c.info.q c.info.d) ~stored:(zeros c.info.n c.info.d)

(* Build a tensor argument with the exact declared shape of the function
   parameter (e.g. the [q,1,d] batched-KNN query). *)
let tensor_args (m : Ir.Func_ir.modul) fn_name info ~queries ~stored =
  let fn = Ir.Func_ir.find_func_exn m fn_name in
  let shape_of i = Ir.Types.shape (List.nth fn.fn_args i).Ir.Value.ty in
  let as_tensor rows shape =
    Interp.Rtval.tensor shape (Array.concat (Array.to_list rows))
  in
  let qv = as_tensor queries (shape_of info.query_arg) in
  let sv = as_tensor stored (shape_of info.stored_arg) in
  if info.query_arg < info.stored_arg then [ qv; sv ] else [ sv; qv ]

(* ---- the crossbar target (Figure 3's sibling device branch) --------- *)

type crossbar_compiled = {
  x_spec : Xbar.spec;
  x_source : string;
  x_torch_ir : Ir.Func_ir.modul;
  x_ir : Ir.Func_ir.modul;
  x_fn : string;
  x_m : int;
  x_k : int;
  x_n : int;
  x_inputs_arg : int;
  x_weights_arg : int;
}

let compile_crossbar ~xspec source =
  Dialects.Register_all.register_all ();
  let torch_ir =
    try Frontend.Emit.compile_string source with
    | Frontend.Tsparser.Parse_error e -> fail "parse error: %s" e
    | Frontend.Emit.Emit_error e -> fail "frontend error: %s" e
  in
  let fn_name =
    match torch_ir.funcs with
    | [ f ] -> f.fn_name
    | _ -> fail "expected exactly one kernel function"
  in
  let cim_ir =
    run_passes Passes.Pipelines.cim_pipeline (clone_module torch_ir)
  in
  (* locate the matmul before mapping to recover shapes and arg roles *)
  let fn = Ir.Func_ir.find_func_exn cim_ir fn_name in
  let matmul =
    match
      Ir.Walk.collect
        (fun o ->
          String.equal o.Ir.Op.op_name "cim.matmul"
          || String.equal o.Ir.Op.op_name "cim.mm")
        fn
    with
    | [ m ] -> m
    | _ -> fail "the crossbar target expects a single-matmul kernel"
  in
  let a = Ir.Op.operand matmul 0 and bmat = Ir.Op.operand matmul 1 in
  let m, k =
    match Ir.Types.shape a.Ir.Value.ty with
    | [ m; k ] -> (m, k)
    | _ -> fail "matmul input must be rank-2"
  in
  let n = List.nth (Ir.Types.shape bmat.Ir.Value.ty) 1 in
  let pos v =
    match arg_position fn v with
    | Some i -> i
    | None -> fail "matmul operands must be kernel arguments"
  in
  let x_ir =
    run_passes
      [ Passes.Crossbar_map.pass xspec; Passes.Canonicalize.pass ]
      (clone_module cim_ir)
  in
  {
    x_spec = xspec;
    x_source = source;
    x_torch_ir = torch_ir;
    x_ir;
    x_fn = fn_name;
    x_m = m;
    x_k = k;
    x_n = n;
    x_inputs_arg = pos a;
    x_weights_arg = pos bmat;
  }

type crossbar_result = {
  product : float array array;
  x_latency : float;
  x_energy : float;
  x_stats : Xbar.stats;
}

let run_crossbar ?tech c ~inputs ~weights =
  if Array.length inputs <> c.x_m then
    fail "expected %d input rows, got %d" c.x_m (Array.length inputs);
  if Array.length weights <> c.x_k then
    fail "expected %d weight rows, got %d" c.x_k (Array.length weights);
  let xsim = Xbar.create ?tech c.x_spec in
  let wrap rows = Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows rows) in
  let args =
    if c.x_inputs_arg < c.x_weights_arg then [ wrap inputs; wrap weights ]
    else [ wrap weights; wrap inputs ]
  in
  let outcome =
    try Interp.Machine.run ~xsim c.x_ir c.x_fn args
    with Interp.Machine.Runtime_error e -> fail "runtime error: %s" e
  in
  let product =
    match outcome.results with
    | [ out ] -> Interp.Rtval.to_rows out
    | _ -> fail "unexpected result arity from the crossbar module"
  in
  let stats = Xbar.stats xsim in
  {
    product;
    x_latency = outcome.latency;
    x_energy = stats.x_energy;
    x_stats = stats;
  }

let price_crossbar c =
  run_crossbar c ~inputs:(zeros c.x_m c.x_k) ~weights:(zeros c.x_k c.x_n)

let to_vm c = Vm.Lower.modul c.cam_ir c.fn_name

let run_vm ?(config = Run_config.default) c ~queries ~stored =
  if Array.length queries <> c.info.q then
    fail "expected %d query rows, got %d" c.info.q (Array.length queries);
  if Array.length stored <> c.info.n then
    fail "expected %d stored rows, got %d" c.info.n (Array.length stored);
  let sim = create_sim config c.spec in
  Camsim.Simulator.set_query_hint sim (Array.length queries);
  let args =
    kernel_args c.info ~queries:(wrap_rows queries) ~stored:(wrap_rows stored)
  in
  let program = to_vm c in
  let outcome =
    try Vm.Exec.run ~sim program args with
    | Vm.Exec.Exec_error e -> fail "vm error: %s" e
    | Vm.Lower.Lower_error e -> fail "vm lowering error: %s" e
  in
  let stats = Camsim.Simulator.stats sim in
  let energy = Camsim.Stats.total_energy stats in
  let latency = outcome.latency in
  let values, indices, scores =
    match (c.info.output, outcome.results) with
    | `Topk, [ v; i ] ->
        (Interp.Rtval.to_rows v, Interp.Rtval.to_int_rows i, None)
    | `Scores, [ s ] ->
        let rows = Interp.Rtval.to_rows s in
        (rows, [||], Some rows)
    | _ -> fail "unexpected result arity from the vm program"
  in
  {
    values;
    indices;
    scores;
    latency;
    energy;
    power = (if latency > 0. then energy /. latency else 0.);
    stats;
    (* the register VM has its own instruction stream; the interpreter's
       per-dialect counters don't apply to it *)
    ops_executed = [];
  }

let run_reference c ~queries ~stored =
  let args = tensor_args c.torch_ir c.fn_name c.info ~queries ~stored in
  (Interp.Machine.run c.torch_ir c.fn_name args).results

let run_cim_software c ~queries ~stored =
  let args = tensor_args c.cim_ir c.fn_name c.info ~queries ~stored in
  (Interp.Machine.run (expanded_cim c) c.fn_name args).results
