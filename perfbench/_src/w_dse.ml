(* dse-sweep: the designer's path.  C4cam.Dse.measure of all seven
   registry workloads at their default shapes over 12 specs (square
   sides 16/32/64 x Base/Power/Density/Power_density); one candidate is
   one op.  Frontend, passes, instance building and the interpreter
   dominate; no store or server code runs. *)

open Bench
module Reg = Workloads.Registry

let specs =
  List.concat_map
    (fun side ->
      List.map (Archspec.Spec.square side)
        Archspec.Spec.[ Base; Power; Density; Power_density ])
    [ 16; 32; 64 ]

type candidate = { entry : Reg.entry; shape : Reg.shape; spec : Archspec.Spec.t }

(* Every registry workload over every spec, in a seed-shuffled order;
   each workload's data seed is drawn from the run's seed too. *)
let candidates seed =
  let g = Prng.make seed in
  let shaped =
    List.map
      (fun (e : Reg.entry) -> (e, { e.Reg.default_shape with Reg.seed = 1 + Prng.int g 1_000_000 }))
      Reg.all
  in
  let all =
    Array.of_list
      (List.concat_map
         (fun (entry, shape) -> List.map (fun spec -> { entry; shape; spec }) specs)
         shaped)
  in
  for i = Array.length all - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  all

let dse_measure c = C4cam.Dse.measure ~spec:c.spec ~shape:c.shape c.entry

let sum_ops l = List.fold_left (fun a (_, n) -> a + n) 0 l

(* The same candidate through the public calls Dse.measure composes,
   one span per layer.  Returns (accuracy, interpreter ops) for the
   check against the untraced measurement. *)
let traced c =
  let shape = c.shape in
  let spec = c.entry.Reg.fix_spec shape c.spec in
  let instance f = Span.with_ "workloads.instance" f in
  match c.entry.Reg.exec with
  | Reg.Kernel mk ->
      let ki = instance (fun () -> mk shape spec) in
      ignore
        (Span.with_ "frontend.parse" (fun () ->
             Frontend.Emit.compile_string ki.Reg.ki_source));
      let compiled =
        Span.with_ "passes.compile" (fun () ->
            C4cam.Driver.compile ~spec ki.Reg.ki_source)
      in
      let r =
        Span.with_ "interp.execute" (fun () ->
            C4cam.Driver.run_cam compiled ~queries:ki.Reg.ki_queries
              ~stored:ki.Reg.ki_stored)
      in
      ( Reg.accuracy ~expected:ki.Reg.ki_labels (ki.Reg.ki_predict r.C4cam.Driver.indices),
        sum_ops r.C4cam.Driver.ops_executed )
  | Reg.Direct run ->
      let o = instance (fun () -> run shape spec) in
      (o.Reg.do_accuracy, 0)
  | Reg.Range mk ->
      let ri = instance (fun () -> mk shape) in
      let compiled =
        Span.with_ "passes.compile" (fun () ->
            C4cam.Acam.compile ~spec ~q:shape.Reg.queries ~boxes:shape.Reg.rows
              ~dims:shape.Reg.dims)
      in
      let r =
        Span.with_ "interp.execute" (fun () ->
            C4cam.Acam.run compiled ~lo:ri.Reg.ri_lo ~hi:ri.Reg.ri_hi
              ~queries:ri.Reg.ri_queries)
      in
      ( Reg.accuracy ~expected:ri.Reg.ri_expected r.C4cam.Acam.matches,
        sum_ops r.C4cam.Acam.ops_executed )

let layers = [ "workloads.instance"; "frontend.parse"; "passes.compile"; "interp.execute" ]

let run ctx =
  let cands = candidates ctx.seed in
  let n = Array.length cands in
  let tl = tally () in
  (* set-up: each registry workload once on the 32x32 Base spec, cold.
     The spec is fixed so that every seed sets up the same work. *)
  let firsts =
    let base = Archspec.Spec.square 32 Archspec.Spec.Base in
    List.filter_map
      (fun (e : Reg.entry) ->
        Option.map
          (fun c -> { c with spec = base })
          (Array.find_opt (fun c -> c.entry.Reg.name = e.Reg.name) cands))
      Reg.all
  in
  let setup () =
    let t0 = now () in
    List.iter (fun c -> ignore (dse_measure c)) firsts;
    now () -. t0
  in
  let setup_s = setup_time ctx ~n:7 ~drop:ignore setup in
  (* reference pass: every candidate once, untimed, which also warms the
     process up; every later pass must reproduce each measurement *)
  let reference = Array.map dse_measure cands in
  (* One round is one full pass, so every round does the same work.  A
     major collection before each candidate keeps one candidate's garbage
     from being collected on the next one's clock: candidates differ in
     cost a hundredfold, and the order is shuffled per seed. *)
  let body () =
    let busy = ref 0. and lat = Array.make n 0. in
    Array.iteri
      (fun i c ->
        Gc.full_major ();
        let t0 = now () in
        let ok =
          if !Span.on then
            match attempt c.entry.Reg.name (fun () -> traced c) with
            | Some (acc, nops) ->
                acc = reference.(i).C4cam.Dse.accuracy
                && nops = reference.(i).C4cam.Dse.n_ops_executed
            | None -> false
          else
            match attempt c.entry.Reg.name (fun () -> dse_measure c) with
            | Some m -> m = reference.(i)
            | None -> false
        in
        let t = now () -. t0 in
        record tl ok;
        busy := !busy +. t;
        lat.(i) <- t)
      cands;
    (n, !busy, lat)
  in
  let kept, plain = measure ctx ~warmup:0 body in
  let queries = Array.fold_left (fun a c -> a + c.shape.Reg.queries) 0 cands in
  let total f = Array.fold_left (fun a m -> a +. f m) 0. reference in
  let per_q f = total (fun m -> float_of_int (f m)) /. float_of_int queries in
  let layers =
    if not ctx.trace then []
    else begin
      let tbl = Span.self_times () in
      let f = factor ctx (median_of (List.map (fun r -> r.calib) kept)) in
      let ms name = 1e3 *. f *. Span.mean_self tbl name in
      let total_ms name = 1e3 *. f *. Span.total_self tbl name in
      let ops = per_q (fun m -> m.C4cam.Dse.n_ops_executed) in
      let exec_per_pass = total_ms "interp.execute" /. float_of_int (List.length kept) in
      trace_metrics ctx ~traced:kept ~plain ~layers
      @ [
          ("frontend.parse_ms", ms "frontend.parse");
          (* Driver.compile parses too: its self time is net of the
             separately timed parse *)
          ("passes.compile_ms",
           (total_ms "passes.compile" -. total_ms "frontend.parse")
           /. float_of_int (max 1 (Span.calls tbl "passes.compile")));
          ("workloads.instance_ms", ms "workloads.instance");
          ("interp.execute_ms", ms "interp.execute");
          ("interp.ops_per_query", ops);
          ("interp.ns_per_op", 1e6 *. exec_per_pass /. (ops *. float_of_int queries));
          ("camsim.search_ops_per_query", per_q (fun m -> m.C4cam.Dse.search_ops));
          ("camsim.kernel_binary_per_query", per_q (fun m -> m.C4cam.Dse.kernel_binary));
          ("camsim.kernel_nibble_per_query", per_q (fun m -> m.C4cam.Dse.kernel_nibble));
          ("camsim.kernel_generic_per_query", per_q (fun m -> m.C4cam.Dse.kernel_generic));
        ]
    end
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("peak_rss_mb", !fixed_peak_rss);
      ("success_rate", success_rate tl);
      ("accuracy", total (fun m -> m.C4cam.Dse.accuracy) /. float_of_int n);
      ("sim_energy_per_query_j", total (fun m -> m.C4cam.Dse.energy) /. float_of_int queries);
      ("sim_latency_per_query_s", total (fun m -> m.C4cam.Dse.latency) /. float_of_int queries);
    ]
  in
  (* Candidates differ in cost by two orders of magnitude, and a pass
     is long enough for the VM to change speed within it.  So each
     candidate gets its own figure, the lower quartile of its passes (like
     the rounds' statistics elsewhere); throughput is the pass of those
     figures and the latency percentiles are taken over them. *)
  let per_candidate =
    sorted_copy
      (Array.init n (fun i ->
           quartile_of ~upper:false (List.map (fun r -> r.lat.(i) *. factor ctx r.calib) kept)))
  in
  let lat_metrics =
    [
      ("ops_per_s", float_of_int n /. Array.fold_left ( +. ) 0. per_candidate);
      ("latency_p50_ms", 1e3 *. quantile per_candidate 0.5);
      ("latency_tail_ms", 1e3 *. quantile per_candidate 0.9);
    ]
  in
  {
    tally = tl;
    correct = tl.failed = 0;
    metrics = e2e @ lat_metrics @ round_metrics ctx kept @ layers;
  }
