(* The c4cam command-line compiler driver.

     c4cam workloads
     c4cam compile --workload mlp --stage cam
     c4cam run     --workload range-filter --size 32
     c4cam serve   --workload knn --batches 4
     c4cam sweep   --workload hdc --dims 8192
     c4cam passes

   Workloads are resolved by name through Workloads.Registry (kernel
   source, data, oracle and shape defaults in one record); --kernel
   FILE bypasses the registry and compiles a TorchScript file directly,
   with HDC-style synthetic data on the compiled shapes. *)

open Cmdliner
module Reg = Workloads.Registry

let read_file path = In_channel.with_open_text path In_channel.input_all

(* ---- shared options ---------------------------------------------------- *)

let kernel_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "kernel"; "k" ] ~docv:"FILE"
        ~doc:"TorchScript kernel to compile (default: built-in HDC).")

let arch_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "arch" ] ~docv:"FILE"
        ~doc:"Architecture specification file (key = value lines).")

let size_arg =
  Arg.(
    value & opt int 32
    & info [ "size" ] ~docv:"N" ~doc:"Square subarray side (default 32).")

let opt_arg =
  let parse s =
    match s with
    | "base" | "latency" -> Ok Archspec.Spec.Base
    | "power" -> Ok Archspec.Spec.Power
    | "density" | "utilization" -> Ok Archspec.Spec.Density
    | "power+density" -> Ok Archspec.Spec.Power_density
    | _ -> Error (`Msg ("unknown optimization: " ^ s))
  in
  let print fmt o =
    Format.pp_print_string fmt (Archspec.Spec.optimization_to_string o)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Archspec.Spec.Base
    & info [ "opt" ] ~docv:"TARGET"
        ~doc:"Optimization target: base|power|density|power+density.")

let workload_arg =
  Arg.(
    value & opt string "hdc"
    & info [ "workload"; "w" ] ~docv:"NAME"
        ~doc:"Workload to resolve from the registry (run $(b,c4cam \
              workloads) for the list); ignored when --kernel names a \
              TorchScript file.")

let queries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "queries"; "q" ] ~docv:"N"
        ~doc:"Number of query rows (default: the workload's).")

let dims_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "dims"; "d" ] ~docv:"N"
        ~doc:"Vector dimensionality (default: the workload's).")

let classes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "classes"; "c" ] ~docv:"N"
        ~doc:"Stored row count — classes, prototypes or boxes (default: \
              the workload's).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:"Data seed (default: the workload's).")

let find_workload name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None ->
      Printf.eprintf "c4cam: unknown workload %s (known: %s)\n" name
        (String.concat ", " Workloads.Registry.names);
      exit 1

(* CLI flags override the entry's default shape only where given. *)
let shape_of (entry : Workloads.Registry.entry) ~queries ~dims ~classes
    ~seed =
  let d = entry.Workloads.Registry.default_shape in
  {
    d with
    Workloads.Registry.queries =
      Option.value queries ~default:d.Workloads.Registry.queries;
    dims = Option.value dims ~default:d.Workloads.Registry.dims;
    rows = Option.value classes ~default:d.Workloads.Registry.rows;
    seed = Option.value seed ~default:d.Workloads.Registry.seed;
  }

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Domain-pool width for parallel simulation and sweeps \
              (default: the C4CAM_JOBS environment variable, else 1; \
              results are identical for any value).")

(* --jobs N > 0 wins; otherwise fall back to C4CAM_JOBS / 1. *)
let with_jobs jobs f =
  let jobs = if jobs > 0 then jobs else Parallel.default_jobs () in
  Parallel.run ~jobs (fun pool -> f (Parallel.jobs pool))

let config_of ?collector () =
  { C4cam.Driver.Run_config.default with profile = collector }

let spec_of ~arch ~size ~opt =
  match arch with
  | Some path -> (
      match Archspec.Spec.load path with
      | Ok s -> Ok (Archspec.Spec.with_optimization s opt)
      | Error e -> Error ("bad architecture spec: " ^ e))
  | None -> Ok (Archspec.Spec.square size opt)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("c4cam: " ^ msg);
      exit 1

(* ---- profiling options (shared by compile and run) --------------------- *)

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Collect per-pass timings, IR deltas and rewrite counters and \
              print the profile table to stderr.")

let profile_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE"
        ~doc:"Write the collected profile to $(docv) as JSON.")

let collector_for ~profile ~profile_json =
  if profile || Option.is_some profile_json then
    Some (Instrument.Collect.create ())
  else None

let emit_profile ~profile ~profile_json collector =
  match collector with
  | None -> ()
  | Some c ->
      let p = Instrument.Collect.profile c in
      if profile then prerr_string (Instrument.Profile.to_table p);
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc ->
              Out_channel.output_string oc
                (Instrument.Json.to_string (Instrument.Profile.to_json p))))
        profile_json

let handle_errors f =
  try f () with
  | C4cam.Driver.Compile_error msg ->
      prerr_endline ("c4cam: compile error: " ^ msg);
      exit 1
  | C4cam.Acam.Range_error msg ->
      prerr_endline ("c4cam: range error: " ^ msg);
      exit 1
  | Serve.Range_store.Store_error msg
  | Serve.Sharded_store.Store_error msg
  | Serve.Session.Serve_error msg ->
      prerr_endline ("c4cam: serve error: " ^ msg);
      exit 1
  | Invalid_argument msg ->
      prerr_endline ("c4cam: " ^ msg);
      exit 1
  | Sys_error msg ->
      prerr_endline ("c4cam: " ^ msg);
      exit 1

(* ---- compile ------------------------------------------------------------ *)

let stage_arg =
  Arg.(
    value & opt string "cam"
    & info [ "stage" ] ~docv:"STAGE"
        ~doc:"IR to print: torch, cim, cam or all.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace-passes" ]
        ~doc:"Print the IR after the frontend and after every pass.")

let compile_cmd =
  let run kernel workload arch size opt queries dims classes seed stage
      trace profile profile_json =
    handle_errors (fun () ->
        let spec0 = or_die (spec_of ~arch ~size ~opt) in
        let collector = collector_for ~profile ~profile_json in
        let compile_source ~spec src =
          if trace then
            let _, entries =
              C4cam.Driver.compile_traced ?profile:collector ~spec src
            in
            List.iter
              (fun (name, text) ->
                Printf.printf "---- after %s ----\n%s\n" name text)
              entries
          else
            let c = C4cam.Driver.compile ?profile:collector ~spec src in
            let stages = C4cam.Driver.stage_texts c in
            match stage with
            | "all" ->
                List.iter
                  (fun (name, text) ->
                    Printf.printf "---- %s ----\n%s\n" name text)
                  stages
            | s -> (
                match List.assoc_opt s stages with
                | Some text -> print_string text
                | None ->
                    prerr_endline
                      "c4cam: --stage must be torch, cim, cam or all";
                    exit 1)
        in
        (match kernel with
        | Some path -> compile_source ~spec:spec0 (read_file path)
        | None -> (
            let entry = find_workload workload in
            let shape = shape_of entry ~queries ~dims ~classes ~seed in
            let spec = entry.Reg.fix_spec shape spec0 in
            match entry.Reg.exec with
            | Reg.Kernel mk ->
                compile_source ~spec (mk shape spec).Reg.ki_source
            | Reg.Range _ ->
                (* built directly at the cam level: no frontend stages *)
                let c =
                  C4cam.Acam.compile ~spec ~q:shape.Reg.queries
                    ~boxes:shape.Reg.rows ~dims:shape.Reg.dims
                in
                print_string (Ir.Printer.module_to_string c.C4cam.Acam.ra_modul)
            | Reg.Direct _ ->
                prerr_endline
                  ("c4cam: workload " ^ entry.Reg.name
                 ^ " drives the simulator directly; there is no kernel IR \
                    to print");
                exit 1));
        emit_profile ~profile ~profile_json collector)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a kernel and print the IR")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg $ stage_arg
      $ trace_arg $ profile_arg $ profile_json_arg)

(* ---- run ---------------------------------------------------------------- *)

let backend_arg =
  Arg.(
    value & opt string "interp"
    & info [ "backend" ] ~docv:"B"
        ~doc:"Execution backend: interp (structured-IR interpreter), vm \
              (flat runtime ISA), or a placement — cam (all-CAM placed \
              run), xbar (crossbar scores, host select), host (host \
              replica) or auto (cost-model choice under --objective). \
              All backends return identical results.")

let place_objective_arg =
  Arg.(
    value & opt string "energy"
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:"Placement objective for --backend auto (and the place \
              command): latency | energy | edp.")

let place_objective_of objective =
  match Passes.Placement.objective_of_string objective with
  | Ok o -> o
  | Error e ->
      prerr_endline ("c4cam: " ^ e);
      exit 1

let correct_of ~predict ~labels indices =
  let got = predict indices in
  let correct = ref 0 in
  Array.iteri (fun i g -> if g = labels.(i) then incr correct) got;
  !correct

let top1 indices = Array.map (fun (row : int array) -> row.(0)) indices

(* Run an already-compiled kernel on the chosen backend and print the
   standard report, scoring with the workload's prediction decoder. *)
let exec_compiled ~config ~collector ~profile ~profile_json ~objective
    ~backend ~spec (c : C4cam.Driver.compiled) ~stored ~queries ~labels
    ~predict ~(pre : Reg.pre_stage option) =
  let kernel_line () =
    Printf.printf "kernel   : %d queries x %d dims vs %d stored (%s)\n"
      c.info.q c.info.d c.info.n
      (C4cam.Dse.config_name spec);
    Option.iter
      (fun (p : Reg.pre_stage) ->
        Printf.printf "pre      : %s, %s, %s (device work before the run)\n"
          p.Reg.pre_label
          (C4cam.Report.si_time p.Reg.pre_latency)
          (C4cam.Report.si_energy p.Reg.pre_energy))
      pre
  in
  let accuracy_line indices =
    Printf.printf "accuracy : %d/%d against the workload oracle\n"
      (correct_of ~predict ~labels indices)
      (Array.length labels)
  in
  match backend with
  | "interp" | "vm" ->
      let r =
        (if backend = "interp" then C4cam.Driver.run_cam
         else C4cam.Driver.run_vm)
          ~config c ~queries ~stored
      in
      emit_profile ~profile ~profile_json collector;
      kernel_line ();
      Printf.printf "latency  : %s\n" (C4cam.Report.si_time r.latency);
      Printf.printf "energy   : %s\n" (C4cam.Report.si_energy r.energy);
      Printf.printf "power    : %s\n" (C4cam.Report.si_power r.power);
      accuracy_line r.indices;
      Printf.printf "%s\n" (Camsim.Stats.to_string r.stats)
  | "cam" | "xbar" | "host" | "auto" ->
      let placement =
        match backend with
        | "cam" -> `Cam
        | "xbar" -> `Fixed Passes.Placement.[ Xbar; Host ]
        | "host" -> `Fixed Passes.Placement.[ Host; Host ]
        | _ -> `Auto
      in
      let config =
        config
        |> C4cam.Driver.Run_config.with_placement placement
        |> C4cam.Driver.Run_config.with_place_objective
             (place_objective_of objective)
      in
      let pr = C4cam.Hetero.run_placed ~config c ~queries ~stored in
      emit_profile ~profile ~profile_json collector;
      kernel_line ();
      Printf.printf "placement: %s (%d candidates, objective %s)\n"
        pr.pr_placement pr.pr_candidates objective;
      let priced = pr.pr_priced in
      List.iter
        (fun (stages, dev, (cost : Passes.Placement.cost)) ->
          Printf.printf "  %-12s on %-4s : %s, %s\n"
            (Passes.Placement.segment_name stages)
            (Passes.Placement.device_name dev)
            (C4cam.Report.si_time cost.latency)
            (C4cam.Report.si_energy cost.energy))
        priced.p_segments;
      if priced.p_moved_bytes > 0 then
        Printf.printf "  move %13d B : %s, %s\n" priced.p_moved_bytes
          (C4cam.Report.si_time priced.p_movement.latency)
          (C4cam.Report.si_energy priced.p_movement.energy);
      Printf.printf "latency  : %s\n"
        (C4cam.Report.si_time priced.p_total.latency);
      Printf.printf "energy   : %s\n"
        (C4cam.Report.si_energy priced.p_total.energy);
      accuracy_line pr.pr_indices
  | b ->
      prerr_endline ("c4cam: unknown backend " ^ b);
      exit 1

let interp_only ~backend entry what =
  if backend <> "interp" then begin
    Printf.eprintf "c4cam: workload %s %s; only --backend interp applies\n"
      entry.Reg.name what;
    exit 1
  end

let run_cmd =
  let run kernel workload arch size opt queries dims classes seed backend
      objective profile profile_json jobs =
    handle_errors (fun () ->
        with_jobs jobs @@ fun jobs ->
        let spec0 = or_die (spec_of ~arch ~size ~opt) in
        let collector = collector_for ~profile ~profile_json in
        Option.iter (fun c -> Instrument.Collect.set_jobs c jobs) collector;
        let config = config_of ?collector () in
        let exec = exec_compiled ~config ~collector ~profile ~profile_json
            ~objective ~backend
        in
        match kernel with
        | Some path ->
            (* explicit TorchScript file: HDC-style synthetic data on the
               compiled shapes, top-1 row as the prediction *)
            let c =
              C4cam.Driver.compile ?profile:collector ~spec:spec0
                (read_file path)
            in
            let data =
              Workloads.Hdc.synthetic
                ~seed:(Option.value seed ~default:11)
                ~dims:c.info.d ~n_classes:c.info.n ~n_queries:c.info.q
                ~bits:spec0.bits ()
            in
            exec ~spec:spec0 c ~stored:data.stored ~queries:data.queries
              ~labels:data.query_labels ~predict:top1 ~pre:None
        | None -> (
            let entry = find_workload workload in
            let shape = shape_of entry ~queries ~dims ~classes ~seed in
            let spec = entry.Reg.fix_spec shape spec0 in
            match entry.Reg.exec with
            | Reg.Kernel mk ->
                let ki = mk shape spec in
                let c =
                  C4cam.Driver.compile ?profile:collector ~spec
                    ki.Reg.ki_source
                in
                exec ~spec c ~stored:ki.Reg.ki_stored
                  ~queries:ki.Reg.ki_queries ~labels:ki.Reg.ki_labels
                  ~predict:ki.Reg.ki_predict ~pre:ki.Reg.ki_pre
            | Reg.Direct dr ->
                interp_only ~backend entry "drives the simulator directly";
                let o = dr shape spec in
                emit_profile ~profile ~profile_json collector;
                Printf.printf
                  "kernel   : %d queries, direct device workload (%s)\n"
                  o.Reg.do_queries
                  (C4cam.Dse.config_name spec);
                Printf.printf "energy   : %s\n"
                  (C4cam.Report.si_energy o.Reg.do_energy);
                Printf.printf
                  "accuracy : %.1f%% against the workload oracle\n"
                  (o.Reg.do_accuracy *. 100.);
                Printf.printf "%s\n" (Camsim.Stats.to_string o.Reg.do_stats)
            | Reg.Range mk ->
                interp_only ~backend entry "executes as an ACAM module";
                let ri = mk shape in
                let c =
                  C4cam.Acam.compile ~spec ~q:shape.Reg.queries
                    ~boxes:shape.Reg.rows ~dims:shape.Reg.dims
                in
                let r =
                  C4cam.Acam.run ~config c ~lo:ri.Reg.ri_lo ~hi:ri.Reg.ri_hi
                    ~queries:ri.Reg.ri_queries
                in
                emit_profile ~profile ~profile_json collector;
                Printf.printf
                  "kernel   : %d queries x %d dims vs %d boxes (acam \
                   range, %s)\n"
                  shape.Reg.queries shape.Reg.dims shape.Reg.rows
                  (C4cam.Dse.config_name spec);
                Printf.printf "latency  : %s\n"
                  (C4cam.Report.si_time r.C4cam.Acam.latency);
                Printf.printf "energy   : %s\n"
                  (C4cam.Report.si_energy r.C4cam.Acam.energy);
                Printf.printf "power    : %s\n"
                  (C4cam.Report.si_power r.C4cam.Acam.power);
                let inside =
                  Array.fold_left
                    (fun a m -> if m >= 0 then a + 1 else a)
                    0 r.C4cam.Acam.matches
                in
                Printf.printf "matched  : %d/%d queries inside a box\n"
                  inside shape.Reg.queries;
                Printf.printf "accuracy : %d/%d against the host oracle\n"
                  (correct_of
                     ~predict:(fun _ -> r.C4cam.Acam.matches)
                     ~labels:ri.Reg.ri_expected r.C4cam.Acam.indices)
                  (Array.length ri.Reg.ri_expected);
                Printf.printf "%s\n"
                  (Camsim.Stats.to_string r.C4cam.Acam.stats)))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute on the CAM simulator")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg $ backend_arg
      $ place_objective_arg $ profile_arg $ profile_json_arg $ jobs_arg)

(* ---- place: price every legal placement of a compiled kernel ------------ *)

let place_cmd =
  let run arch size opt queries dims classes features metric topk objective =
    handle_errors (fun () ->
        let q = Option.value queries ~default:16 in
        let dims = Option.value dims ~default:1024 in
        let n = Option.value classes ~default:10 in
        let spec = or_die (spec_of ~arch ~size ~opt) in
        (* The kernel the flags describe, compiled and priced as it
           would run; Euclidean distances need the multi-bit cell. *)
        let spec, source =
          match metric with
          | "dot" ->
              (spec, Workloads.Kernels.hdc_dot ~q ~dims ~classes:n ~k:topk)
          | "cosine" -> (spec, Workloads.Kernels.cosine_scores ~q ~dims ~n)
          | "euclidean" ->
              ( { spec with cam_kind = Archspec.Spec.Mcam },
                Workloads.Kernels.knn_euclidean ~q ~dims ~n ~k:topk )
          | "hamming" ->
              prerr_endline
                "c4cam: no TorchScript kernel produces a hamming score stage";
              exit 1
          | m ->
              prerr_endline ("c4cam: unknown metric " ^ m);
              exit 1
        in
        let c = C4cam.Driver.compile ~spec source in
        let stages =
          (if features > 0 then
             [ Passes.Placement.Gemv { m = q; k = features; n = dims } ]
           else [])
          @ C4cam.Hetero.stages_of_info c.info
        in
        print_string
          (Passes.Placement.table
             ~objective:(place_objective_of objective)
             (C4cam.Hetero.models c) stages))
  in
  let features_arg =
    Arg.(
      value & opt int 0
      & info [ "features" ] ~docv:"N"
          ~doc:"Prepend a GEMV feature-projection stage ($(docv) input \
                features per query; default 0: no GEMV stage).")
  in
  let metric_arg =
    Arg.(
      value & opt string "dot"
      & info [ "metric" ] ~docv:"M"
          ~doc:"Similarity metric of the score stage, and so the kernel \
                priced: dot (hdc_dot) | cosine (cosine_scores, no select \
                stage) | euclidean (knn_euclidean).")
  in
  let topk_arg =
    Arg.(
      value & opt int 1
      & info [ "topk" ] ~docv:"K" ~doc:"Results per query row (default 1).")
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Price every legal device assignment of a kernel's stage \
          pipeline and print the candidate table (each CAM or crossbar \
          segment simulated on zero rows)")
    Term.(
      const run $ arch_arg $ size_arg $ opt_arg $ queries_arg $ dims_arg
      $ classes_arg $ features_arg $ metric_arg $ topk_arg
      $ place_objective_arg)

(* ---- serve: persistent session over query batches ---------------------- *)

(* [rows] as batches of [q] rows, the last one shorter when [q] does
   not divide the row count: a session runs it through its lowering
   for that many rows. *)
let batches_of ~q rows =
  let n = Array.length rows in
  List.init ((n + q - 1) / q) (fun i ->
      Array.sub rows (i * q) (min q (n - (i * q))))

(* Query input in the TCP wire format (Tcp.parse_request): each
   non-blank line holds one or more query rows; rows are grouped into
   q-row batches. *)
let read_query_batches ~q ~d ic =
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Tcp.parse_request line with
         | parsed ->
             Array.iter
               (fun row ->
                 if Array.length row <> d then begin
                   Printf.eprintf
                     "c4cam: query row has %d values, expected %d\n"
                     (Array.length row) d;
                   exit 1
                 end;
                 rows := row :: !rows)
               parsed
         | exception Server.Server_error msg ->
             prerr_endline ("c4cam: bad query line: " ^ msg);
             exit 1
     done
   with End_of_file -> ());
  if !rows = [] then begin
    prerr_endline "c4cam: read no query rows";
    exit 1
  end;
  batches_of ~q (Array.of_list (List.rev !rows))

(* Shared knobs of the micro-batching scheduler (serve --clients and
   serve-tcp). *)
let server_config_args =
  let batch_rows_arg =
    Arg.(
      value & opt int 0
      & info [ "batch-rows" ] ~docv:"N"
          ~doc:"Micro-batch row capacity (default: 4x the kernel's query \
                arity).")
  in
  let window_arg =
    Arg.(
      value & opt float 0.
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Batching window: with a partially filled batch the \
                scheduler waits this long for more arrivals before \
                dispatching (default 0: dispatch immediately).")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-cap" ] ~docv:"ROWS"
          ~doc:"Backpressure bound on queued rows (default 256). serve \
                --clients enqueues its batches in waves of at most this \
                many rows (a wave always takes at least one batch), each \
                served to completion before the next, so a workload \
                larger than the bound completes and its output stays \
                deterministic.")
  in
  let fail_fast_arg =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:"Reject submissions at the queue cap instead of blocking.")
  in
  let mk batch_rows window queue_cap fail_fast jobs =
    {
      Server.default_config with
      batch_rows;
      window_s = window;
      queue_cap;
      backpressure = (if fail_fast then `Fail_fast else `Block);
      jobs;
    }
  in
  Term.(
    const mk $ batch_rows_arg $ window_arg $ queue_cap_arg $ fail_fast_arg)

let print_server_stats (st : Server.stats) =
  Printf.printf
    "server   : %d micro-batches, fill %.2f queries/batch, queue \
     high-water %d rows\n"
    st.batches_coalesced st.batch_fill st.queue_hwm;
  Printf.printf "latency  : p50 %s / p99 %s submit-to-done (host)\n"
    (C4cam.Report.si_time st.lat_p50_s)
    (C4cam.Report.si_time st.lat_p99_s)

let print_session_stats (s : Serve.Session.stats)
    (info : C4cam.Driver.kernel_info) spec =
  Printf.printf "kernel   : %d queries x %d dims vs %d stored (%s)\n"
    info.q info.d info.n
    (C4cam.Dse.config_name spec);
  Printf.printf "served   : %d batches, %d queries (%.0f queries/s)\n"
    s.Serve.Session.batches s.queries_served s.queries_per_s;
  Printf.printf "latency  : %s simulated\n"
    (C4cam.Report.si_time s.sim_latency_s);
  Printf.printf "energy   : %s (writes %s, charged once)\n"
    (C4cam.Report.si_energy s.sim_energy_j)
    (C4cam.Report.si_energy s.write_energy_j);
  Printf.printf "artifact : cache %s\n"
    (match s.cache with `Hit -> "hit" | `Miss -> "miss")

(* ---- sharded-store serving (serve --shards / --store-rows) ------------- *)

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:"Partition the stored rows across $(docv) independent \
              simulator shards; > 1 (or --store-rows) switches serve to \
              the sharded HDC store (see docs/SHARDING.md).")

let store_rows_arg =
  Arg.(
    value & opt int 0
    & info [ "store-rows" ] ~docv:"M"
        ~doc:"Row capacity of the sharded store (enables sharded-store \
              mode; default: --classes when --shards > 1).")

let topk_arg =
  Arg.(
    value & opt int 3
    & info [ "topk" ] ~docv:"K"
        ~doc:"Results per query row in sharded-store mode (default 3).")

let print_store_stats (st : Serve.Sharded_store.stats) spec ~q ~d ~k =
  Printf.printf "kernel   : %d queries x %d dims, top-%d host merge (%s)\n"
    q d k (C4cam.Dse.config_name spec);
  Printf.printf "store    : %d shards, %d/%d rows stored (%d slots free)\n"
    st.Serve.Sharded_store.shards st.rows_stored st.capacity st.rows_free;
  Array.iteri
    (fun i (si : Serve.Sharded_store.shard_info) ->
      Printf.printf "  shard %-3d: %d rows, %d free, %d writes, %s\n" i
        si.Serve.Sharded_store.info_rows si.info_free si.info_write_ops
        (C4cam.Report.si_energy si.info_energy_j))
    st.per_shard;
  let s = st.session in
  Printf.printf "served   : %d batches, %d queries (%.0f queries/s)\n"
    s.Serve.Session.batches s.queries_served s.queries_per_s;
  Printf.printf "latency  : %s simulated (slowest shard per batch)\n"
    (C4cam.Report.si_time s.sim_latency_s);
  Printf.printf "energy   : %s (writes %s, changed rows only)\n"
    (C4cam.Report.si_energy s.sim_energy_j)
    (C4cam.Report.si_energy s.write_energy_j);
  Printf.printf "fan-out  : %s wall, merge %s wall\n"
    (C4cam.Report.si_time st.fanout_wall_s)
    (C4cam.Report.si_time st.merge_wall_s);
  Printf.printf "artifact : cache %s\n"
    (match s.cache with `Hit -> "hit" | `Miss -> "miss")

let top_line (indices : int array array) =
  Array.to_list indices
  |> List.map (fun (row : int array) -> string_of_int row.(0))
  |> String.concat " "

(* The first [nb] q-row batches of a generated query pool; a workload
   whose test set holds fewer than [nb * q] rows serves what it has,
   the last batch short. *)
let batches_from_pool ~q ~nb pool =
  batches_of ~q (Array.sub pool 0 (min (Array.length pool) (nb * q)))

(* serve --clients: route the batches through the micro-batching
   scheduler, request i on client (i mod clients), and print one line
   per request. [Server.serve_all] enqueues them in waves that fit the
   queue cap while the scheduler is paused, so the coalescing — and
   this output — is deterministic for a fixed input, however many rows
   the batches hold. *)
let serve_clients ~config ~clients ~what backend batches =
  let server, responses = Server.serve_all ~config ~clients backend batches in
  List.iteri
    (fun i (r : Server.response) ->
      Printf.printf "request %d: %s [%s] (client %d, micro-batch %d)\n" i
        what (top_line r.r_indices) (i mod clients) r.r_batch_seq)
    responses;
  Server.stats server

let print_range_store_stats store spec ~q =
  let s = Serve.Range_store.stats store in
  Printf.printf
    "kernel   : %d queries x %d dims vs %d boxes (acam range, %s)\n" q
    (Serve.Range_store.dims store)
    (Serve.Range_store.boxes store)
    (C4cam.Dse.config_name spec);
  Printf.printf "store    : %d shards\n" (Serve.Range_store.shards store);
  Printf.printf "served   : %d batches, %d queries (%.0f queries/s)\n"
    s.Serve.Session.batches s.queries_served s.queries_per_s;
  Printf.printf "latency  : %s simulated (slowest shard per batch)\n"
    (C4cam.Report.si_time s.sim_latency_s);
  Printf.printf "energy   : %s (range writes %s, charged once)\n"
    (C4cam.Report.si_energy s.sim_energy_j)
    (C4cam.Report.si_energy s.write_energy_j)

let print_pre_stage = function
  | None -> ()
  | Some (p : Reg.pre_stage) ->
      Printf.printf "pre      : %s, %s, %s (device work before serving)\n"
        p.Reg.pre_label
        (C4cam.Report.si_time p.Reg.pre_latency)
        (C4cam.Report.si_energy p.Reg.pre_energy)

(* ---- the serving backend, resolved once for serve and serve-tcp ------- *)

(* What a serve command runs, as its arguments select it: the range
   store (a range workload), the sharded store (--shards > 1 or
   --store-rows) or one session (--kernel or a kernel workload). *)
type served = {
  backend : Serve.Backend.t;
  what : string;  (** the label of a reply's ids: "matched" or "top-1" *)
  direct : float array array -> int array array * float * float;
      (** one batch queried directly: the printed ids, simulated
          latency and energy *)
  summary : unit -> unit;  (** the kernel and store lines after serving *)
  synthetic : unit -> float array array list;
      (** [nb] generated batches, for when no --input is given *)
}

let resolve_served ~kernel ~workload ~spec ~config ~collector ~queries ~dims
    ~classes ~seed ~shards ~store_rows ~topk ~nb =
  let entry =
    match kernel with
    | Some _ -> None
    | None -> Some (find_workload workload)
  in
  match entry with
  | Some ({ Reg.exec = Reg.Range mk; _ } as e) ->
      (* a pinned box table behind the (optionally sharded) range store *)
      let shape = shape_of e ~queries ~dims ~classes ~seed in
      let q = shape.Reg.queries in
      let ri = mk { shape with Reg.queries = q * nb } in
      let store =
        Serve.Range_store.create ~config ~shards ~spec ~q ~lo:ri.Reg.ri_lo
          ~hi:ri.Reg.ri_hi ()
      in
      {
        backend = Serve.Range_store.backend store;
        what = "matched";
        direct =
          (fun batch ->
            let r = Serve.Range_store.query store batch in
            (Array.map (fun m -> [| m |]) r.matches, r.latency, r.energy));
        summary = (fun () -> print_range_store_stats store spec ~q);
        synthetic = (fun () -> batches_from_pool ~q ~nb ri.Reg.ri_queries);
      }
  | Some { Reg.exec = Reg.Direct _; name; _ } ->
      Printf.eprintf
        "c4cam: workload %s drives the simulator directly and is not \
         servable\n"
        name;
      exit 1
  | _ when shards > 1 || store_rows > 0 ->
      (* the workload kernel is ignored: the store compiles its own
         scores-form kernel over [rows] synthetic prototypes (external
         id = class label) *)
      let q = Option.value queries ~default:16 in
      let d = Option.value dims ~default:1024 in
      let rows =
        if store_rows > 0 then store_rows
        else Option.value classes ~default:10
      in
      let store =
        Serve.Sharded_store.create ~config ~spec ~q ~d ~k:topk ~shards
          ~capacity:rows ()
      in
      let data =
        Workloads.Hdc.synthetic
          ~seed:(Option.value seed ~default:11)
          ~dims:d ~n_classes:rows ~n_queries:(q * nb)
          ~bits:spec.Archspec.Spec.bits ()
      in
      Array.iter
        (fun r -> ignore (Serve.Sharded_store.insert store r))
        data.stored;
      {
        backend = Serve.Sharded_store.backend store;
        what = "top-1";
        direct =
          (fun batch ->
            let r = Serve.Sharded_store.query store batch in
            (r.indices, r.latency, r.energy));
        summary =
          (fun () ->
            print_store_stats
              (Serve.Sharded_store.stats store)
              spec ~q ~d ~k:topk);
        synthetic =
          (fun () -> List.init nb (fun i -> Array.sub data.queries (i * q) q));
      }
  | _ ->
      let spec, session, synthetic, pre =
        match kernel with
        | Some path ->
            (* Probe the artifact first so synthetic data agrees with the
               kernel's shapes, then hand the probe's result to the
               session — its status reflects this process's first sight
               of the (source, spec) pair, and on a miss the compile
               passes land in the collector. *)
            let src = read_file path in
            let (c, _) as artifact =
              Serve.Artifact_cache.lookup ?profile:collector ~spec src
            in
            let { C4cam.Driver.q; d; n; _ } = c.info in
            let data =
              Workloads.Hdc.synthetic
                ~seed:(Option.value seed ~default:11)
                ~dims:d ~n_classes:n ~n_queries:(q * nb) ~bits:spec.bits ()
            in
            ( spec,
              Serve.Session.create ~config ~artifact ~spec
                ~stored:data.stored src,
              (fun () ->
                List.init nb (fun i -> Array.sub data.queries (i * q) q)),
              None )
        | None ->
            let e = Option.get entry in
            let mk =
              match e.Reg.exec with
              | Reg.Kernel mk -> mk
              | _ -> assert false
            in
            let shape = shape_of e ~queries ~dims ~classes ~seed in
            let spec = e.Reg.fix_spec shape spec in
            let ki = mk shape spec in
            let artifact =
              Serve.Artifact_cache.lookup ?profile:collector ~spec
                ki.Reg.ki_source
            in
            (* a second, wider instance supplies distinct query rows for
               every batch; source and stored rows come from the serving
               instance *)
            let pool () =
              (mk { shape with Reg.queries = shape.Reg.queries * nb } spec)
                .Reg.ki_queries
            in
            ( spec,
              Serve.Session.create ~config ~artifact ~spec
                ~stored:ki.Reg.ki_stored ki.Reg.ki_source,
              (fun () ->
                batches_from_pool ~q:shape.Reg.queries ~nb (pool ())),
              ki.Reg.ki_pre )
      in
      print_pre_stage pre;
      {
        backend = Serve.Backend.of_session session;
        what = "top-1";
        direct =
          (fun batch ->
            let r = Serve.Session.query session batch in
            (r.indices, r.latency, r.energy));
        summary =
          (fun () ->
            print_session_stats
              (Serve.Session.stats session)
              (Serve.Session.info session)
              spec);
        synthetic;
      }

let serve_cmd =
  let run kernel workload arch size opt queries dims classes seed batches
      input clients shards store_rows topk server_config profile
      profile_json jobs =
    handle_errors (fun () ->
        with_jobs jobs @@ fun jobs ->
        let spec = or_die (spec_of ~arch ~size ~opt) in
        let collector = collector_for ~profile ~profile_json in
        Option.iter (fun c -> Instrument.Collect.set_jobs c jobs) collector;
        let config = config_of ?collector () in
        let nb = max 1 batches in
        let served =
          resolve_served ~kernel ~workload ~spec ~config ~collector ~queries
            ~dims ~classes ~seed ~shards ~store_rows ~topk ~nb
        in
        let query_batches =
          let { Serve.Backend.q; d; _ } = served.backend in
          match input with
          | Some "-" -> read_query_batches ~q ~d stdin
          | Some path ->
              In_channel.with_open_text path (read_query_batches ~q ~d)
          | None -> served.synthetic ()
        in
        if clients > 0 then begin
          let st =
            serve_clients ~config:(server_config jobs) ~clients
              ~what:served.what served.backend query_batches
          in
          emit_profile ~profile ~profile_json collector;
          served.summary ();
          Printf.printf "clients  : %d\n" clients;
          print_server_stats st
        end
        else begin
          List.iteri
            (fun i batch ->
              let indices, latency, energy = served.direct batch in
              Printf.printf "batch %d: %s [%s] (%s, %s)\n" i served.what
                (top_line indices)
                (C4cam.Report.si_time latency)
                (C4cam.Report.si_energy energy))
            query_batches;
          emit_profile ~profile ~profile_json collector;
          served.summary ()
        end)
  in
  let batches_arg =
    Arg.(
      value & opt int 8
      & info [ "batches"; "b" ] ~docv:"N"
          ~doc:"Synthetic batches to serve when no --input is given \
                (default 8).")
  in
  let input_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"FILE"
          ~doc:"Query rows in the serve-tcp wire format, grouped into \
                q-row batches; '-' reads stdin. Each non-blank line holds \
                one or more rows separated by ';', each row d fields \
                separated by spaces or tabs. A field is a finite decimal \
                float ([+-]digits[.digits][(e|E)[+-]digits]); hex floats, \
                '_' separators, nan and infinity are refused.")
  in
  let clients_arg =
    Arg.(
      value & opt int 0
      & info [ "clients" ] ~docv:"N"
          ~doc:"Serve the batches through the concurrent front-end's \
                micro-batching scheduler, spread round-robin over $(docv) \
                client handles (default 0: query the session directly).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Create a persistent session and serve query batches against it")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg $ batches_arg
      $ input_arg $ clients_arg $ shards_arg $ store_rows_arg $ topk_arg
      $ server_config_args $ profile_arg $ profile_json_arg $ jobs_arg)

(* ---- serve-tcp: the newline-delimited wire front-end -------------------- *)

let serve_tcp_cmd =
  let run kernel workload arch size opt queries dims classes seed port
      shards store_rows topk server_config profile profile_json jobs =
    handle_errors (fun () ->
        with_jobs jobs @@ fun jobs ->
        let spec = or_die (spec_of ~arch ~size ~opt) in
        let collector = collector_for ~profile ~profile_json in
        Option.iter (fun c -> Instrument.Collect.set_jobs c jobs) collector;
        let config = config_of ?collector () in
        let served =
          resolve_served ~kernel ~workload ~spec ~config ~collector ~queries
            ~dims ~classes ~seed ~shards ~store_rows ~topk ~nb:1
        in
        let server =
          Server.create_on ~config:(server_config jobs) served.backend
        in
        let listener =
          try Tcp.listen ~port server
          with Server.Server_error msg ->
            prerr_endline ("c4cam: " ^ msg);
            exit 1
        in
        Printf.printf "listening on 127.0.0.1:%d\n%!" (Tcp.port listener);
        (* serve until stdin closes (^D, or the driving process hanging
           up), then shut down in order: wire, scheduler, summary *)
        (try
           while true do
             ignore (input_line stdin)
           done
         with End_of_file -> ());
        Tcp.shutdown listener;
        Server.stop server;
        emit_profile ~profile ~profile_json collector;
        let st = Server.stats server in
        served.summary ();
        Printf.printf "clients  : %d connections\n"
          (Tcp.connections_served listener);
        print_server_stats st)
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to bind on 127.0.0.1 (default 0: let the kernel \
                pick an ephemeral port; it is printed on startup).")
  in
  Cmd.v
    (Cmd.info "serve-tcp"
       ~doc:
         "Serve the kernel over newline-delimited TCP until stdin closes")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg $ port_arg
      $ shards_arg $ store_rows_arg $ topk_arg $ server_config_args
      $ profile_arg $ profile_json_arg $ jobs_arg)

(* ---- asm: print the flat runtime ISA -------------------------------------- *)

let asm_cmd =
  let run kernel workload arch size opt queries dims classes seed =
    handle_errors (fun () ->
        let spec0 = or_die (spec_of ~arch ~size ~opt) in
        let src, spec =
          match kernel with
          | Some path -> (read_file path, spec0)
          | None -> (
              let entry = find_workload workload in
              let shape = shape_of entry ~queries ~dims ~classes ~seed in
              let spec = entry.Reg.fix_spec shape spec0 in
              match entry.Reg.exec with
              | Reg.Kernel mk -> ((mk shape spec).Reg.ki_source, spec)
              | Reg.Range _ | Reg.Direct _ ->
                  prerr_endline
                    ("c4cam: workload " ^ entry.Reg.name
                   ^ " has no flat-ISA lowering (compiled kernels only)");
                  exit 1)
        in
        let c = C4cam.Driver.compile ~spec src in
        print_string (Vm.Isa.to_string (C4cam.Driver.to_vm c)))
  in
  Cmd.v
    (Cmd.info "asm"
       ~doc:"Compile and print the flat runtime-ISA listing (llvm stage)")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg)

(* ---- tune ------------------------------------------------------------------ *)

let tune_cmd =
  let run queries dims classes objective jobs =
    handle_errors (fun () ->
        with_jobs jobs @@ fun _jobs ->
        let data =
          Workloads.Hdc.synthetic ~seed:11
            ~dims:(Option.value dims ~default:1024)
            ~n_classes:(Option.value classes ~default:10)
            ~n_queries:(Option.value queries ~default:16)
            ~bits:1 ()
        in
        let config = C4cam.Driver.Run_config.default in
        let candidates = C4cam.Autotune.evaluate_hdc ~config ~data () in
        let obj =
          match objective with
          | "latency" -> C4cam.Autotune.Min_latency
          | "energy" -> C4cam.Autotune.Min_energy
          | "power" -> C4cam.Autotune.Min_power
          | "edp" -> C4cam.Autotune.Min_edp
          | "area" -> C4cam.Autotune.Min_area
          | o ->
              prerr_endline ("c4cam: unknown objective " ^ o);
              exit 1
        in
        let c = C4cam.Autotune.best obj candidates in
        Printf.printf "best for %s: %s\n"
          (C4cam.Autotune.objective_to_string obj)
          c.measurement.config;
        Printf.printf
          "latency %s | energy %s | power %s | area %.4f mm2\n\
           spec:\n%s"
          (C4cam.Report.si_time c.measurement.latency)
          (C4cam.Report.si_energy c.measurement.energy)
          (C4cam.Report.si_power c.measurement.power)
          c.area_mm2
          (Archspec.Spec.to_string c.spec))
  in
  let objective_arg =
    Arg.(
      value & opt string "edp"
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:"latency | energy | power | edp | area.")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Search the architecture grid for the best configuration")
    Term.(
      const run $ queries_arg $ dims_arg $ classes_arg $ objective_arg
      $ jobs_arg)

(* ---- sweep --------------------------------------------------------------- *)

let sweep_cmd =
  let run workload queries dims classes seed jobs =
    handle_errors (fun () ->
        with_jobs jobs @@ fun _jobs ->
        let entry = find_workload workload in
        let shape = shape_of entry ~queries ~dims ~classes ~seed in
        let config = C4cam.Driver.Run_config.default in
        let specs =
          List.concat_map
            (fun side ->
              List.map
                (Archspec.Spec.square side)
                Archspec.Spec.[ Base; Power; Density; Power_density ])
            [ 16; 32; 64; 128; 256 ]
        in
        let measurements =
          C4cam.Dse.registry_sweep ~config ~specs ~shape entry
        in
        let rows =
          List.map
            (fun (m : C4cam.Dse.measurement) ->
              [
                m.config;
                C4cam.Report.si_time m.latency;
                C4cam.Report.si_energy m.energy;
                C4cam.Report.si_power m.power;
                string_of_int m.subarrays;
                string_of_int m.banks;
                Printf.sprintf "%.0f%%" (m.accuracy *. 100.);
              ])
            measurements
        in
        print_string
          (C4cam.Report.table
             ~headers:
               [ "config"; "latency"; "energy"; "power"; "subarrays";
                 "banks"; "accuracy" ]
             rows))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Design-space exploration of a registry workload over sizes and \
          optimizations")
    Term.(
      const run $ workload_arg $ queries_arg $ dims_arg $ classes_arg
      $ seed_arg $ jobs_arg)

(* ---- workloads: list the registry ----------------------------------------- *)

let workloads_cmd =
  let run () =
    List.iter
      (fun (e : Reg.entry) ->
        let s = e.Reg.default_shape in
        Printf.printf "%-13s %s\n%-13s   default: %d queries x %d dims vs \
                       %d rows, k=%d, seed %d\n"
          e.Reg.name e.Reg.summary "" s.Reg.queries s.Reg.dims s.Reg.rows
          s.Reg.k s.Reg.seed)
      Reg.all
  in
  Cmd.v
    (Cmd.info "workloads"
       ~doc:"List the registered workloads and their default shapes")
    Term.(const run $ const ())

(* ---- passes --------------------------------------------------------------- *)

let passes_cmd =
  let run () =
    List.iter print_endline Passes.Pipelines.names
  in
  Cmd.v (Cmd.info "passes" ~doc:"List the available passes") Term.(const run $ const ())

let () =
  let doc = "C4CAM: a compiler for CAM-based in-memory accelerators" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "c4cam" ~doc)
          [
            compile_cmd; run_cmd; place_cmd; serve_cmd; serve_tcp_cmd;
            asm_cmd; sweep_cmd; tune_cmd; workloads_cmd;
            passes_cmd;
          ]))
