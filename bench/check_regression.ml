(* The CI benchmark-regression gate.

     dune exec bench/check_regression.exe -- [BASELINE] [CURRENT]

   Compares a freshly produced BENCH_smoke.json (see `main.exe -- smoke
   --json`) against the checked-in bench/baseline.json:

   - latency_s and energy_j of every baseline workload must equal the
     baseline value exactly: the simulator is a deterministic
     analytical model and the JSON prints floats with 17 significant
     digits, so the figures round-trip bit for bit, and any drift at
     all is a compiler or cost-model change (a host-side speed-up of
     the kernels or the interpreter must leave them untouched);
   - accuracy must match the baseline exactly — classification results
     are rankings, and a ranking change is a correctness regression, not
     noise;
   - deterministic activity counters (simulator ledger and the
     interpreter's n_ops_executed work proxy) must match exactly when
     the baseline records them — they are schedule- and
     wall-clock-independent by construction, so any drift is a semantic
     change;
   - every baseline workload must still be present.

   Workloads present only in the current file are reported but do not
   fail the gate (adding coverage is not a regression). Exit code 1 on
   any violation.

   The serve workloads additionally report alloc_minor_words_per_query
   (docs/OBSERVABILITY.md). It is gated with a band rather than exactly
   — minor-heap traffic shifts by a handful of words across compiler
   and runtime versions — and only when both files were produced at the
   same top-level jobs count: Gc.minor_words is per-domain, so once the
   serve fan-out hands tiles to worker domains the dispatching domain's
   count no longer covers the whole query. *)

(* relative half-width of the alloc band *)
let tolerance = 0.10

(* absolute slack for the alloc band: 10% of a near-zero baseline would
   gate tighter than the measurement is stable *)
let alloc_floor = 128.

let default_baseline = "bench/baseline.json"
let default_current = "BENCH_smoke.json"

let read_json path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "check_regression: %s\n" msg;
      exit 2
  in
  try Instrument.Json.parse text
  with Instrument.Json.Parse_error (msg, pos) ->
    Printf.eprintf "check_regression: %s: %s at offset %d\n" path msg pos;
    exit 2

let workloads json =
  Instrument.Json.to_list (Instrument.Json.member "workloads" json)
  |> List.map (fun w ->
         (Instrument.Json.get_string (Instrument.Json.member "name" w), w))

let () =
  let baseline_path, current_path =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> (default_baseline, default_current)
    | [ b ] -> (b, default_current)
    | [ b; c ] -> (b, c)
    | _ ->
        Printf.eprintf "usage: check_regression [BASELINE] [CURRENT]\n";
        exit 2
  in
  let bdoc = read_json baseline_path in
  let cdoc = read_json current_path in
  let baseline = workloads bdoc in
  let current = workloads cdoc in
  let doc_jobs doc =
    Option.map Instrument.Json.get_int (Instrument.Json.member_opt "jobs" doc)
  in
  let jobs_match =
    match (doc_jobs bdoc, doc_jobs cdoc) with
    | Some b, Some c -> b = c
    | _ -> false
  in
  let failures = ref 0 in
  let check name what ok detail =
    Printf.printf "%-24s %-12s %s  %s\n" name what
      (if ok then "ok  " else "FAIL")
      detail;
    if not ok then incr failures
  in
  List.iter
    (fun (name, base) ->
      match List.assoc_opt name current with
      | None -> check name "presence" false "workload missing from current run"
      | Some cur ->
          let fbase key =
            Instrument.Json.get_float (Instrument.Json.member key base)
          and fcur key =
            Instrument.Json.get_float (Instrument.Json.member key cur)
          in
          List.iter
            (fun key ->
              let b = fbase key and c = fcur key in
              check name key (b = c)
                (Printf.sprintf
                   "baseline %.17g, current %.17g (exact match required)" b c))
            [ "latency_s"; "energy_j" ];
          let ab = fbase "accuracy" and ac = fcur "accuracy" in
          check name "accuracy" (ab = ac)
            (Printf.sprintf "baseline %.4f, current %.4f (exact match \
                             required)" ab ac);
          (* exact gates on the deterministic counters, applied only
             when the baseline has the key (older baselines predate
             some of them) *)
          List.iter
            (fun key ->
              match Instrument.Json.member_opt key base with
              | None -> ()
              | Some bj ->
                  let b = Instrument.Json.get_int bj in
                  let c =
                    match Instrument.Json.member_opt key cur with
                    | Some cj -> Instrument.Json.get_int cj
                    | None -> -1
                  in
                  check name key (b = c)
                    (Printf.sprintf
                       "baseline %d, current %d (exact match required)" b c))
            [
              "subarrays"; "banks"; "search_ops"; "query_cycles";
              "write_ops"; "kernel_binary"; "kernel_nibble";
              "kernel_generic"; "kernel_early_exit"; "n_ops_executed";
              "batches"; "batches_coalesced"; "queue_hwm"; "shards";
              "rows_stored"; "placement_wins"; "placement_candidates";
              "placement_moved_bytes";
            ];
          (* exact string gates: the sharded workload's results_digest
             hashes the bit pattern of every merged distance and
             external id — any drift is a ranking change, exactly like
             accuracy above but covering the full top-k; the placement
             workload's chosen assignment is a compiler decision, so
             any drift is a cost-model change that must be reviewed *)
          List.iter
            (fun key ->
              match Instrument.Json.member_opt key base with
              | None -> ()
              | Some bj ->
                  let b = Instrument.Json.get_string bj in
                  let c =
                    match Instrument.Json.member_opt key cur with
                    | Some cj -> Instrument.Json.get_string cj
                    | None -> "<missing>"
                  in
                  check name key (String.equal b c)
                    (Printf.sprintf
                       "baseline %s, current %s (exact match required)" b c))
            [ "results_digest"; "placement" ];
          (* deterministic float counters: pure functions of exact-gated
             integers or of the analytical cost models, so they too must
             match exactly (the latency percentiles, by contrast, are
             host wall-clock and are gated by nothing) *)
          List.iter
            (fun key ->
              match Instrument.Json.member_opt key base with
              | None -> ()
              | Some bj ->
                  let b = Instrument.Json.get_float bj in
                  let c =
                    match Instrument.Json.member_opt key cur with
                    | Some cj -> Instrument.Json.get_float cj
                    | None -> nan
                  in
                  check name key (b = c)
                    (Printf.sprintf
                       "baseline %.6f, current %.6f (exact match required)"
                       b c))
            [
              "batch_fill"; "placement_latency_s"; "placement_energy_j";
              "pre_latency_s"; "pre_energy_j"; "energy_per_inference_j";
              "write_energy_j";
            ];
          (* GC-pressure gate: banded, not exact, and only when the two
             runs used the same jobs count (see the header comment) and
             — for the sharded workload — the same shard count: the
             dispatching domain's merge footprint scales with the
             number of shards, so bands taken at different shard counts
             are not comparable *)
          let shards_match =
            match
              ( Instrument.Json.member_opt "shards" base,
                Instrument.Json.member_opt "shards" cur )
            with
            | Some b, Some c ->
                Instrument.Json.get_int b = Instrument.Json.get_int c
            | _ -> true
          in
          (match
             Instrument.Json.member_opt "alloc_minor_words_per_query" base
           with
          | None -> ()
          | Some bj when jobs_match && shards_match ->
              let b = Instrument.Json.get_float bj in
              let c =
                match
                  Instrument.Json.member_opt "alloc_minor_words_per_query"
                    cur
                with
                | Some cj -> Instrument.Json.get_float cj
                | None -> nan
              in
              let band = Float.max alloc_floor (tolerance *. Float.abs b) in
              check name "alloc_w/q"
                (Float.abs (c -. b) <= band)
                (Printf.sprintf
                   "baseline %.1f, current %.1f words/query (band +/-%.1f)"
                   b c band)
          | Some _ ->
              Printf.printf
                "%-24s %-12s note  %s counts differ; alloc gate skipped\n"
                name "alloc_w/q"
                (if jobs_match then "shard" else "jobs")))
    baseline;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name baseline) then
        Printf.printf "%-24s %-12s note  new workload (not gated)\n" name
          "presence")
    current;
  if !failures > 0 then begin
    Printf.eprintf "\ncheck_regression: %d metric(s) out of tolerance \
                    (exact simulated figures and counters, +/-%.0f%% \
                    alloc band)\n"
      !failures (tolerance *. 100.);
    exit 1
  end
  else
    Printf.printf "\nall %d baseline workloads match (simulated figures \
                   exact)\n"
      (List.length baseline)
