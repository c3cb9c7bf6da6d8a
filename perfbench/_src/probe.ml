(* Kernel floors: the fastest the camsim search kernels run on this
   machine, measured on a bare subarray.  A store's gap to the floor is
   its query time per (query, row) pair, or per cell for ranges, over
   these figures. *)

open Bench

let reps = 40

(* median over [reps] timed searches of [search ()], calibrated, in ns
   per [units] *)
let time_per ctx ~units search =
  ignore (search ());
  let before = readings 3 in
  let samples =
    List.init reps (fun _ ->
        let t0 = now () in
        ignore (search ());
        now () -. t0)
  in
  let calib = median_of (before @ readings 3) in
  median_of samples *. factor ctx calib *. 1e9 /. float_of_int units

(* [Subarray.search] of 32 binary queries over 512 rows of 64 columns *)
let binary_ns_per_pair ctx =
  let g = Prng.make 0xB1 in
  let row () = Oracle.row_of_bits (Oracle.bits_of_int64 (Prng.bits64 g)) in
  let sa = Camsim.Subarray.create ~rows:512 ~cols:64 ~bits:1 in
  Camsim.Subarray.write sa (Array.init 512 (fun _ -> row ()));
  let queries = Array.init 32 (fun _ -> row ()) in
  time_per ctx ~units:(32 * 512) (fun () ->
      Camsim.Subarray.search sa ~queries ~row_offset:0 ~rows:512 ~metric:`Hamming)

(* [Subarray.search_range] of 8 queries over 1024 boxes of 16 dims *)
let range_ns_per_cell ctx =
  let g = Prng.make 0xB2 in
  let rows = 1024 and dims = 16 in
  let lo = Array.init rows (fun _ -> Array.init dims (fun _ -> 0.4 *. Prng.float g)) in
  let hi = Array.map (Array.map (fun l -> l +. 0.2 +. (0.4 *. Prng.float g))) lo in
  let sa = Camsim.Subarray.create ~rows ~cols:dims ~bits:8 in
  Camsim.Subarray.write_range sa ~row_offset:0 ~lo ~hi;
  let queries = Array.init 8 (fun _ -> Array.init dims (fun _ -> Prng.float g)) in
  time_per ctx ~units:(8 * rows * dims) (fun () ->
      Camsim.Subarray.search_range sa ~queries ~row_offset:0 ~rows)
