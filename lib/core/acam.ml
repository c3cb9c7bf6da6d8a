type compiled = {
  ra_spec : Archspec.Spec.t;
  ra_modul : Ir.Func_ir.modul;
  ra_fn : string;
  ra_q : int;
  ra_rows : int;
  ra_d : int;
}

exception Range_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Range_error s)) fmt

let fit_spec ?(base = Archspec.Spec.square 32 Archspec.Spec.Base) ~boxes
    ~dims () =
  {
    base with
    Archspec.Spec.rows = max base.Archspec.Spec.rows (max 32 boxes);
    cols = max base.Archspec.Spec.cols dims;
  }

let fn_name = "range_filter"

let compile ~(spec : Archspec.Spec.t) ~q ~boxes ~dims =
  if q < 1 || boxes < 1 || dims < 1 then
    fail "q/boxes/dims must all be >= 1 (got %d/%d/%d)" q boxes dims;
  if boxes > spec.Archspec.Spec.rows then
    fail "box table of %d rows exceeds the subarray's %d" boxes
      spec.Archspec.Spec.rows;
  if dims > spec.Archspec.Spec.cols then
    fail "box width %d exceeds the subarray's %d columns" dims
      spec.Archspec.Spec.cols;
  let queries =
    Ir.Value.fresh (Ir.Types.memref [ q; dims ] Ir.Types.F32)
  in
  let lo = Ir.Value.fresh (Ir.Types.memref [ boxes; dims ] Ir.Types.F32) in
  let hi = Ir.Value.fresh (Ir.Types.memref [ boxes; dims ] Ir.Types.F32) in
  let b = Ir.Builder.create () in
  let bank =
    Dialects.Cam.alloc_bank b ~rows:spec.Archspec.Spec.rows
      ~cols:spec.Archspec.Spec.cols
  in
  let mat = Dialects.Cam.alloc_mat b bank in
  let arr = Dialects.Cam.alloc_array b mat in
  let sub = Dialects.Cam.alloc_subarray b arr in
  let c0 = Dialects.Arith.const_index b 0 in
  Dialects.Cam.write_range b sub ~lo ~hi ~row_offset:c0;
  Dialects.Cam.search b sub queries ~kind:Dialects.Cam.Range
    ~metric:Dialects.Cam.Hamming ~row_offset:c0 ~rows:boxes ();
  let viol = Dialects.Cam.read b sub ~queries:q ~rows:boxes in
  let values, indices =
    Dialects.Cam.select_best b viol ~k:1 ~largest:false
  in
  Ir.Builder.op0 b ~operands:[ values; indices ]
    Dialects.Torch.return_name;
  let fn =
    Ir.Func_ir.func fn_name
      ~args:[ queries; lo; hi ]
      ~ret:[ values.Ir.Value.ty; indices.Ir.Value.ty ]
      (Ir.Builder.finish b)
  in
  {
    ra_spec = spec;
    ra_modul = Ir.Func_ir.modul [ fn ];
    ra_fn = fn_name;
    ra_q = q;
    ra_rows = boxes;
    ra_d = dims;
  }

type result = {
  values : float array array;
  indices : int array array;
  matches : int array;
  latency : float;
  energy : float;
  power : float;
  stats : Camsim.Stats.t;
  ops_executed : (string * int) list;
}

let run ?(config = Driver.Run_config.default) c ~lo ~hi ~queries =
  if Array.length queries <> c.ra_q then
    fail "expected %d query rows, got %d" c.ra_q (Array.length queries);
  if Array.length lo <> c.ra_rows || Array.length hi <> c.ra_rows then
    fail "expected %d box rows, got %d/%d" c.ra_rows (Array.length lo)
      (Array.length hi);
  let sim = Driver.create_sim config c.ra_spec in
  Camsim.Simulator.set_query_hint sim c.ra_q;
  let outcome =
    try
      Interp.Machine.run ~sim c.ra_modul c.ra_fn
        (List.map Driver.wrap_rows [ queries; lo; hi ])
    with Interp.Machine.Runtime_error e -> fail "runtime error: %s" e
  in
  let values, indices =
    match outcome.Interp.Machine.results with
    | [ v; i ] -> (Interp.Rtval.to_rows v, Interp.Rtval.to_int_rows i)
    | _ -> fail "unexpected result arity from the range module"
  in
  let stats = Camsim.Simulator.stats sim in
  let energy = Camsim.Stats.total_energy stats in
  let latency = outcome.Interp.Machine.latency in
  let r =
    {
      values;
      indices;
      matches = Workloads.Range_filter.decode ~values ~indices;
      latency;
      energy;
      power = (if latency > 0. then energy /. latency else 0.);
      stats;
      ops_executed = outcome.Interp.Machine.ops_executed;
    }
  in
  Option.iter
    (fun p ->
      Driver.fold_sim_stats p ~latency:r.latency ~energy:r.energy
        ~ops_executed:r.ops_executed r.stats)
    config.Driver.Run_config.profile;
  r
