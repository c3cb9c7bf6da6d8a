(* The CI determinism gate for the multicore engine.

     dune exec bench/diff_determinism.exe -- [--shard-leg] A.json B.json

   Compares two `main.exe -- smoke --json` outputs produced with
   different --jobs values. Every simulated metric and activity counter
   must be BYTE-IDENTICAL — the domain pool may only change wall-clock,
   never results. Host-side timing fields (wall-clock, per-pass
   durations, the jobs count itself) are stripped before comparison.
   Exit code 1 on any divergence.

   With --shard-leg the two files may also differ in --shards: device
   activity legitimately changes with the partitioning (per-shard
   kernels cover fewer rows, searches and cycles split differently), so
   the per-device counters and energies are stripped too. What remains
   gated — accuracy, batches, rows_stored and above all results_digest,
   the bit pattern of every merged distance and external id — is the
   sharded store's portability contract: any shard count, any jobs
   value, byte-identical answers (docs/SHARDING.md). *)

module Json = Instrument.Json

(* Keys that legitimately vary with the schedule or the jobs value. *)
let base_ignored_keys =
  [
    "wall_clock_s"; "dse_wall_clock_s"; "jobs"; "duration_s"; "frontend_s";
    "total_s"; "queries_per_s"; "serve_wall_s"; "lat_p50_s"; "lat_p99_s";
    (* host time fanning batches to shards / merging candidates *)
    "shard_fanout_wall_s"; "shard_merge_wall_s";
    (* Gc.minor_words is per-domain: the dispatching domain's count
       shrinks as tiles move to workers, so this varies with --jobs.
       check_regression gates it instead, on same-jobs pairs. *)
    "alloc_minor_words_per_query";
  ]

(* Additionally stripped under --shard-leg: everything that tracks how
   the device work was partitioned rather than what was answered. *)
let shard_variant_keys =
  [
    "shards"; "latency_s"; "energy_j"; "power_w"; "edp_js"; "search_ops";
    "query_cycles"; "write_ops"; "subarrays"; "banks"; "kernel_binary";
    "kernel_nibble"; "kernel_generic"; "kernel_early_exit";
    "n_ops_executed"; "write_energy_j";
  ]

let ignored_keys = ref base_ignored_keys

let rec strip (j : Json.t) =
  match j with
  | Json.Assoc fields ->
      Json.Assoc
        (List.filter_map
           (fun (k, v) ->
             if List.mem k !ignored_keys then None else Some (k, strip v))
           fields)
  | Json.List items -> Json.List (List.map strip items)
  | _ -> j

let read_json path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "diff_determinism: %s\n" msg;
      exit 2
  in
  try Json.parse text
  with Json.Parse_error (msg, pos) ->
    Printf.eprintf "diff_determinism: %s: %s at offset %d\n" path msg pos;
    exit 2

(* Path-wise diff so a divergence names the exact field. *)
let rec diff path a b acc =
  match (a, b) with
  | Json.Assoc fa, Json.Assoc fb ->
      let keys l = List.map fst l in
      let all =
        List.sort_uniq String.compare (keys fa @ keys fb)
      in
      List.fold_left
        (fun acc k ->
          let p = if path = "" then k else path ^ "." ^ k in
          match (List.assoc_opt k fa, List.assoc_opt k fb) with
          | Some va, Some vb -> diff p va vb acc
          | Some _, None -> (p ^ " only in the first file") :: acc
          | None, Some _ -> (p ^ " only in the second file") :: acc
          | None, None -> acc)
        acc all
  | Json.List la, Json.List lb when List.length la = List.length lb ->
      List.fold_left
        (fun (i, acc) (va, vb) ->
          (i + 1, diff (Printf.sprintf "%s[%d]" path i) va vb acc))
        (0, acc)
        (List.combine la lb)
      |> snd
  | Json.List la, Json.List lb ->
      Printf.sprintf "%s: %d vs %d elements" path (List.length la)
        (List.length lb)
      :: acc
  | _ ->
      if Json.equal a b then acc
      else
        Printf.sprintf "%s: %s vs %s" path
          (Json.to_string ~pretty:false a)
          (Json.to_string ~pretty:false b)
        :: acc

let () =
  let a_path, b_path =
    match List.tl (Array.to_list Sys.argv) with
    | [ a; b ] -> (a, b)
    | [ "--shard-leg"; a; b ] ->
        ignored_keys := base_ignored_keys @ shard_variant_keys;
        (a, b)
    | _ ->
        Printf.eprintf "usage: diff_determinism [--shard-leg] A.json B.json\n";
        exit 2
  in
  let a = strip (read_json a_path) and b = strip (read_json b_path) in
  let divergences = List.rev (diff "" a b []) in
  if divergences = [] then
    Printf.printf
      "determinism ok: %s and %s agree on every simulated metric and \
       counter\n"
      a_path b_path
  else begin
    List.iter (fun d -> Printf.printf "DIVERGE  %s\n" d) divergences;
    Printf.eprintf
      "\ndiff_determinism: %d field(s) differ between %s and %s — the \
       domain pool changed simulated results\n"
      (List.length divergences) a_path b_path;
    exit 1
  end
