(* Recommender-system style task-level parallelism across banks
   (Section II-C: "RecSys can profit from CAMs in both filtering and
   ranking stages, where each stage executes different tasks on
   different banks in parallel").

   Stage 1 (bank 0): FILTER — a threshold search marks catalogue items
   within a Hamming radius of the user's preference vector.
   Stage 2 (bank 1): RANK — a best-match search orders a (pre-staged)
   candidate shard for the *previous* batch of users while stage 1
   filters the current one; with both banks active concurrently, batch
   latency is the maximum of the stages rather than their sum.

   Run with:  dune exec examples/recsys_banks.exe *)

let dims = 64
let n_items = 24
let radius = 22.

let () =
  let rng = Rng.create 99 in
  let rand_vec () =
    Array.init dims (fun _ -> if Rng.bool rng 0.5 then 1. else 0.)
  in
  let catalogue = Array.init n_items (fun _ -> rand_vec ()) in
  let user = rand_vec () in

  let spec =
    { (Archspec.Spec.square 32 Archspec.Spec.Base) with cols = dims }
  in
  let sim = Camsim.Simulator.create spec in
  Camsim.Simulator.set_query_hint sim 1;
  let alloc_chain () =
    let bank = Camsim.Simulator.alloc_bank sim ~rows:32 ~cols:dims in
    let mat = Camsim.Simulator.alloc_mat sim bank in
    let arr = Camsim.Simulator.alloc_array sim mat in
    Camsim.Simulator.alloc_subarray sim arr
  in
  let filter_sub = alloc_chain () in
  let rank_sub = alloc_chain () in

  (* Stage 1: threshold filtering of the catalogue. *)
  let w1 =
    Camsim.Simulator.write sim filter_sub ~row_offset:0 catalogue
  in
  let s1 =
    Camsim.Simulator.search sim filter_sub ~queries:[| user |] ~row_offset:0
      ~rows:n_items ~kind:`Threshold ~metric:`Hamming ~threshold:radius ()
  in
  let flags = (Camsim.Simulator.read sim filter_sub).(0) in
  let candidates =
    Array.to_list flags
    |> List.mapi (fun i f -> (i, f))
    |> List.filter (fun (_, f) -> f = 1.)
    |> List.map fst
  in
  Printf.printf "filter stage: %d of %d items within radius %.0f: [%s]\n"
    (List.length candidates) n_items radius
    (String.concat "; " (List.map string_of_int candidates));

  (* Stage 2: rank the candidate shard with a best-match search. *)
  let shard = Array.of_list (List.map (fun i -> catalogue.(i)) candidates) in
  let w2 = Camsim.Simulator.write sim rank_sub ~row_offset:0 shard in
  let s2 =
    Camsim.Simulator.search sim rank_sub ~queries:[| user |] ~row_offset:0
      ~rows:(Array.length shard) ~kind:`Best ~metric:`Hamming ()
  in
  let dists = Camsim.Simulator.read sim rank_sub in
  let (_, ranked), sel =
    Camsim.Simulator.select_best sim ~dist:dists ~k:(min 3 (Array.length shard))
      ~largest:false
  in
  Printf.printf "rank stage: top items for the user: [%s]\n"
    (String.concat "; "
       (Array.to_list
          (Array.map (fun i -> string_of_int (List.nth candidates i))
             ranked.(0))));

  (* Latency accounting: sequential vs bank-parallel pipelining. *)
  let open Camsim.Energy_model in
  let stage1 = w1.latency +. s1.latency in
  let stage2 = w2.latency +. s2.latency +. sel.latency in
  Printf.printf
    "\nstage latencies: filter %s, rank %s\n"
    (C4cam.Report.si_time stage1) (C4cam.Report.si_time stage2);
  Printf.printf "one bank (sequential stages): %s per batch\n"
    (C4cam.Report.si_time (stage1 +. stage2));
  Printf.printf "two banks (pipelined stages) : %s per batch (%.2fx)\n"
    (C4cam.Report.si_time (Float.max stage1 stage2))
    ((stage1 +. stage2) /. Float.max stage1 stage2);
  Printf.printf "\n%s\n"
    (Camsim.Stats.to_string (Camsim.Simulator.stats sim))
