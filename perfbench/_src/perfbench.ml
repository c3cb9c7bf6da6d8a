(* The host benchmark's entry point: one workload per process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --calib-ref-ms MS [--trace-out FILE]

   Prints the result JSON as the last line of standard output: with
   --trace 0 every end-to-end metric, with --trace 1 every per-layer
   metric (0 for a layer the workload does not exercise) and the spans
   written to FILE as Chrome trace-event JSON.  See perfbench/NOTES.md. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("peak_rss_mb", "MiB");
    ("success_rate", "ratio");
    ("accuracy", "ratio");
    ("sim_energy_per_query_j", "J");
    ("sim_latency_per_query_s", "sim_s");
  ]

let per_layer =
  [
    ("frontend.parse_ms", "ms");
    ("passes.compile_ms", "ms");
    ("passes.compiles", "count");
    ("workloads.instance_ms", "ms");
    ("interp.execute_ms", "ms");
    ("interp.ops_per_query", "count");
    ("interp.ns_per_op", "ns");
    ("camsim.floor_ns_per_pair", "ns");
    ("camsim.gap_to_floor", "ratio");
    ("camsim.range_floor_ns_per_cell", "ns");
    ("camsim.range_gap_to_floor", "ratio");
    ("camsim.search_ops_per_query", "count");
    ("camsim.kernel_binary_per_query", "count");
    ("camsim.kernel_nibble_per_query", "count");
    ("camsim.kernel_generic_per_query", "count");
    ("serve.query_ms", "ms");
    ("serve.fanout_ms", "ms");
    ("serve.merge_ms", "ms");
    ("serve.insert_us", "us");
    ("serve.delete_us", "us");
    ("serve.update_us", "us");
    ("serve.update_box_us", "us");
    ("serve.alloc_words_per_query", "words");
    ("serve.write_ops_per_batch", "count");
    ("server.batch_fill", "rows");
    ("server.pad_ratio", "ratio");
    ("server.backend_ms", "ms");
    ("server.queue_wait_ms", "ms");
    ("tcp.parse_us", "us");
    ("tcp.format_us", "us");
    ("tcp.wire_ms", "ms");
    ("gc.major_per_kop", "count");
    ("host.calib_ms", "ms");
    ("host.latency_p99_ms", "ms");
    ("host.trace_overhead", "ratio");
    ("host.attributed_share", "ratio");
  ]

let workloads =
  [
    ("dse-sweep", W_dse.run);
    ("store-32k", W_store.run);
    ("range-acam", W_range.run);
    ("tcp-hdc", W_tcp.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --calib-ref-ms MS [--trace-out FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let trace =
    match int "trace" with 0 -> false | 1 -> true | _ -> usage ()
  in
  let calib_ref_ms =
    match float_of_string_opt (get "calib-ref-ms") with
    | Some v when v > 0. -> v
    | _ -> usage ()
  in
  let ctx =
    {
      Bench.seed = int "seed";
      seconds = float_of_int (max 1 (int "seconds"));
      trace;
      calib_ref_s = calib_ref_ms /. 1e3;
      trace_out = Option.value ~default:"" (List.assoc_opt "trace-out" opts);
    }
  in
  Parallel.set_default_jobs 1;
  let o = run ctx in
  (* the kernel floors are machine figures: every traced run reports them *)
  let o =
    if not trace then o
    else
      let add name probe m = if List.mem_assoc name m then m else (name, probe ctx) :: m in
      { o with
        Bench.metrics =
          o.Bench.metrics
          |> add "camsim.floor_ns_per_pair" Probe.binary_ns_per_pair
          |> add "camsim.range_floor_ns_per_cell" Probe.range_ns_per_cell }
  in
  let table = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0. (List.assoc_opt name o.Bench.metrics), unit))
      table
  in
  if trace && ctx.trace_out <> "" then Bench.Span.write_chrome ctx.trace_out;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-32s %.6g %s\n" name v unit)
    metrics;
  Bench.print_result ~correct:o.Bench.correct o.Bench.tally metrics
