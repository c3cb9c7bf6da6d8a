type base = A | C | G | T
type sequence = base array

let base_of_int = function 0 -> A | 1 -> C | 2 -> G | _ -> T

let random_sequence ?(seed = 1) n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> base_of_int (Rng.int rng 4))

let mutate ?(seed = 2) seq ~rate =
  let rng = Rng.create seed in
  Array.map
    (fun b ->
      if Rng.bool rng rate then
        (* pick a different base *)
        let rec other () =
          let b' = base_of_int (Rng.int rng 4) in
          if b' = b then other () else b'
        in
        other ()
      else b)
    seq

let base_to_char = function A -> 'A' | C -> 'C' | G -> 'G' | T -> 'T'

let to_string seq =
  String.init (Array.length seq) (fun i -> base_to_char seq.(i))

let of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | 'A' | 'a' -> A
      | 'C' | 'c' -> C
      | 'G' | 'g' -> G
      | 'T' | 't' -> T
      | c -> invalid_arg (Printf.sprintf "Genome.of_string: %c" c))

let base_index = function A -> 0 | C -> 1 | G -> 2 | T -> 3

let encode seq =
  let out = Array.make (4 * Array.length seq) 0. in
  Array.iteri (fun i b -> out.((4 * i) + base_index b) <- 1.) seq;
  out

let kmers seq ~k =
  let n = Array.length seq in
  if k < 1 || k > n then invalid_arg "Genome.kmers: bad k";
  Array.init (n - k + 1) (fun i -> Array.sub seq i k)

let mismatches a b =
  if Array.length a <> Array.length b then
    invalid_arg "Genome.mismatches: length mismatch";
  let d = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr d) a;
  !d

let scan_software ~reference ~pattern ~max_mismatches =
  let k = Array.length pattern in
  kmers reference ~k
  |> Array.to_list
  |> List.mapi (fun i w -> (i, mismatches w pattern))
  |> List.filter (fun (_, d) -> d <= max_mismatches)
  |> List.map fst

type cam_index = {
  sim : Camsim.Simulator.t;
  sub : Camsim.Simulator.id;
  k : int;
  positions : int;
}

let build_index ?spec ~reference ~k () =
  let windows = kmers reference ~k in
  let positions = Array.length windows in
  let cols = 4 * k in
  let spec =
    match spec with
    | Some s -> s
    | None ->
        {
          Archspec.Spec.default with
          rows = max 16 positions;
          cols;
          cam_kind = Archspec.Spec.Bcam;
        }
  in
  if spec.rows < positions then
    invalid_arg "Genome.build_index: reference does not fit the subarray";
  if spec.cols < cols then
    invalid_arg "Genome.build_index: k-mer wider than the subarray";
  let sim = Camsim.Simulator.create spec in
  let bank = Camsim.Simulator.alloc_bank sim ~rows:spec.rows ~cols:spec.cols in
  let mat = Camsim.Simulator.alloc_mat sim bank in
  let arr = Camsim.Simulator.alloc_array sim mat in
  let sub = Camsim.Simulator.alloc_subarray sim arr in
  ignore
    (Camsim.Simulator.write sim sub ~row_offset:0
       (Array.map encode windows));
  { sim; sub; k; positions }

let scan_cam index ~pattern ~max_mismatches =
  if Array.length pattern <> index.k then
    invalid_arg "Genome.scan_cam: pattern length differs from the index k";
  (* one base mismatch = two one-hot cell mismatches *)
  let threshold = float_of_int (2 * max_mismatches) in
  ignore
    (Camsim.Simulator.search index.sim index.sub
       ~queries:[| encode pattern |] ~row_offset:0 ~rows:index.positions
       ~kind:`Threshold ~metric:`Hamming ~threshold ());
  let flags = (Camsim.Simulator.read index.sim index.sub).(0) in
  Array.to_list flags
  |> List.mapi (fun i f -> (i, f))
  |> List.filter (fun (_, f) -> f = 1.)
  |> List.map fst
