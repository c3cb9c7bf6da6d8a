type result = {
  latency : float;
  energy : float;
  subarrays : int;
  arrays : int;
  mats : int;
  banks : int;
}

let ceil_div a b = (a + b - 1) / b

let manual_similarity ?(tech = Camsim.Tech.fefet_45nm_v2)
    ~(spec : Archspec.Spec.t) ~queries ~stored_rows ~dims ~k () =
  if dims mod spec.cols <> 0 then
    invalid_arg "manual_similarity: dims must divide by the columns";
  let tile_rows = min stored_rows spec.rows in
  let row_chunks = ceil_div stored_rows tile_rows in
  let col_chunks = dims / spec.cols in
  let tiles = row_chunks * col_chunks in
  let batches =
    Passes.Cim_partition.batches_for spec ~stored_rows
  in
  let slots = ceil_div tiles batches in
  let bits = spec.bits in
  (* --- per-tile cost chain, identical to the generated inner loop --- *)
  let write = Camsim.Energy_model.write tech ~bits ~cols:spec.cols ~rows:tile_rows in
  let search =
    Camsim.Energy_model.search tech ~bits ~cols:spec.cols
      ~active_rows:tile_rows ~physical_rows:spec.rows ~kind:`Best ~queries
      ~batch_extra:(batches > 1) ()
  in
  let merge =
    Camsim.Energy_model.merge tech ~elems:(queries * tile_rows)
  in
  let tile_latency = write.latency +. search.latency +. merge.latency in
  (* Occupancy, counted in tiles run back to back. Density packs
     [batches] tiles per subarray (Sec. III-D), so the last subarray
     holds what is left — possibly fewer, even fewer than [batches] in
     the only one. A sequential level sums its units' times, a parallel
     one takes the busiest; a partly filled last unit is charged what
     it holds, not what a full one would. *)
  let level mode per units =
    let n = Array.length units in
    Array.init (ceil_div n per) (fun g ->
        let unit_times = Array.sub units (g * per) (min per (n - (g * per))) in
        match (mode : Archspec.Spec.access_mode) with
        | Sequential -> Array.fold_left ( + ) 0 unit_times
        | Parallel -> Array.fold_left max 0 unit_times)
  in
  let per_subarray =
    Array.init slots (fun s -> min batches (tiles - (s * batches)))
  in
  let per_array = level spec.subarray_mode spec.subarrays_per_array per_subarray in
  let per_mat = level spec.array_mode spec.arrays_per_mat per_array in
  let per_bank = level spec.mat_mode spec.mats_per_bank per_mat in
  let arrays = Array.length per_array in
  let mats = Array.length per_mat in
  let banks = Array.length per_bank in
  let all_banks =
    float_of_int (level spec.bank_mode banks per_bank).(0) *. tile_latency
  in
  let select =
    Camsim.Energy_model.select tech ~elems_per_query:stored_rows ~k ~queries
  in
  let latency = all_banks +. select.latency in
  (* --- energy: every tile pays its chain; levels pay per-query I/O --- *)
  let tilesf = float_of_int tiles in
  let overhead lvl count =
    (Camsim.Energy_model.level_overhead tech ~level:lvl ~queries).energy
    *. float_of_int count
  in
  let energy =
    (tilesf *. (write.energy +. search.energy +. merge.energy))
    +. select.energy
    +. overhead `Bank banks
    +. overhead `Mat mats
    +. overhead `Array arrays
  in
  { latency; energy; subarrays = slots; arrays; mats; banks }
