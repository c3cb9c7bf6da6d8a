(* Shared helpers for the test suites. *)

let () = Dialects.Register_all.register_all ()

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1. (Float.abs expected)
  then
    Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

let check_raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* A tiny torch-level module used by several suites: the HDC similarity
   kernel at configurable sizes. *)
let hdc_source ?(q = 4) ?(dims = 64) ?(classes = 4) ?(k = 1) () =
  Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k

let hdc_torch ?q ?dims ?classes ?k () =
  Frontend.Emit.compile_string (hdc_source ?q ?dims ?classes ?k ())

let spec32 = Archspec.Spec.square 32 Archspec.Spec.Base

let rows_testable =
  Alcotest.testable
    (fun fmt rows ->
      Format.pp_print_string fmt
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun r ->
                   String.concat ","
                     (Array.to_list (Array.map string_of_float r)))
                 rows))))
    (fun a b -> a = b)

let int_rows_testable =
  Alcotest.testable
    (fun fmt rows ->
      Format.pp_print_string fmt
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun r ->
                   String.concat ","
                     (Array.to_list (Array.map string_of_int r)))
                 rows))))
    (fun a b -> a = b)

(* Parser fuzzing: one of [seeds] with 1-4 bytes overwritten, inserted
   or deleted (half the new bytes drawn from the IR and TorchScript
   punctuation, half from any byte), then truncated one time in four. *)
let syntax_bytes = "%\"\\(){}[]<>:,=-^#@!.ex0123456789 \n"

let mutant seeds =
  let seeds = Array.of_list seeds in
  let gen st =
    let byte () =
      if Random.State.bool st then Char.chr (Random.State.int st 256)
      else syntax_bytes.[Random.State.int st (String.length syntax_bytes)]
    in
    let s = ref seeds.(Random.State.int st (Array.length seeds)) in
    for _ = 1 to 1 + Random.State.int st 4 do
      let n = String.length !s in
      let pos = Random.State.int st (n + 1) in
      let keep_from i = String.sub !s i (n - i) in
      s :=
        match Random.State.int st 3 with
        | 0 when pos < n ->
            String.sub !s 0 pos ^ String.make 1 (byte ()) ^ keep_from (pos + 1)
        | 1 when pos < n -> String.sub !s 0 pos ^ keep_from (pos + 1)
        | _ -> String.sub !s 0 pos ^ String.make 1 (byte ()) ^ keep_from pos
    done;
    if Random.State.int st 4 = 0 then
      String.sub !s 0 (Random.State.int st (String.length !s + 1))
    else !s
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

(* ---- brute-force host oracles and the warm-chunk ledger -------------- *)

(* The CAM distance of a binary query to a binary stored row: the
   number of mismatching cells. *)
let hamming (a : float array) (b : float array) =
  let d = ref 0 in
  Array.iteri (fun j x -> if x <> b.(j) then incr d) a;
  float_of_int !d

(* The [k] smallest of [cands] ([(value, id)] pairs) by value, ties on
   the id, by a full sort: [(values, ids)]. *)
let sorted_prefix ~k cands =
  let s = List.sort compare cands in
  let top = List.filteri (fun i _ -> i < k) s in
  (Array.of_list (List.map fst top), Array.of_list (List.map snd top))

(* Per query row, the top [k] stored rows by Hamming distance, ties on
   the row index: what a dot-similarity top-k kernel on binary data
   answers. *)
let host_topk ~k ~stored queries =
  Array.split
    (Array.map
       (fun qr ->
         sorted_prefix ~k
           (Array.to_list (Array.mapi (fun i s -> (hamming qr s, i)) stored)))
       queries)

(* The simulated cost of one chunk of [r] query rows of a compiled
   top-k kernel on an all-parallel spec, once the device setup is
   recorded (replayed allocations and clean writes cost nothing), in
   closed form from the Energy_model primitives: each of the [tiles]
   tiles searches the [r] rows over its [tile_rows] rows and merges an
   [r x tile_rows] block, all tiles at once (latency is one tile's),
   then one select ranks the [n] candidates of each row. Returns
   [(latency, energy)]. *)
let warm_chunk_cost ~(spec : Archspec.Spec.t) ~tiles ~tile_rows ~n ~k r =
  let module E = Camsim.Energy_model in
  let tech = Camsim.Tech.fefet_45nm in
  let search =
    E.search tech ~bits:spec.bits ~cols:spec.cols ~active_rows:tile_rows
      ~physical_rows:spec.rows ~kind:`Best ~queries:r ~batch_extra:false ()
  in
  let merge = E.merge tech ~elems:(r * tile_rows) in
  let select = E.select tech ~elems_per_query:n ~k ~queries:r in
  ( search.latency +. merge.latency +. select.latency,
    (float_of_int tiles *. (search.energy +. merge.energy)) +. select.energy )

(* [rows] split the way a session runs them: [q]-row chunks, the last
   one shorter. *)
let chunk_sizes ~q rows =
  List.init ((rows + q - 1) / q) (fun i -> min q (rows - (i * q)))
