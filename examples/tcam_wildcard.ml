(* Ternary don't-care matching: the classic TCAM use case (longest-prefix
   routing) on the simulator's direct device API.

   Each routing rule stores a bit-prefix followed by wildcard cells; an
   exact-match search returns, for every queried address, which rules it
   satisfies (distance 0 over the care cells). Priority (longest prefix)
   is resolved by storing more-specific rules in lower rows.

   This exercises the TCAM write path with explicit care masks and the
   exact-match search kind — the parts of the CAM background
   (Section II-B) that the similarity benchmarks do not touch.

   Run with:  dune exec examples/tcam_wildcard.exe *)

let width = 16

(* A rule is a bit-prefix: "10110*" -> cells [1;0;1;1;0], wildcards after. *)
let rule prefix next_hop =
  let cells = Array.make width 0. in
  let care = Array.make width false in
  String.iteri
    (fun i c ->
      cells.(i) <- (if c = '1' then 1. else 0.);
      care.(i) <- true)
    prefix;
  (cells, care, prefix, next_hop)

let address bits =
  Array.init width (fun i ->
      if i < String.length bits && bits.[i] = '1' then 1. else 0.)

let () =
  let rules =
    [
      rule "1011010" "eth3 (most specific)";
      rule "10110" "eth2";
      rule "101" "eth1";
      rule "" "eth0 (default route)";
    ]
  in
  let spec =
    { (Archspec.Spec.square 32 Archspec.Spec.Base) with cols = width }
  in
  let sim = Camsim.Simulator.create spec in
  let bank = Camsim.Simulator.alloc_bank sim ~rows:32 ~cols:width in
  let mat = Camsim.Simulator.alloc_mat sim bank in
  let arr = Camsim.Simulator.alloc_array sim mat in
  let sub = Camsim.Simulator.alloc_subarray sim arr in
  List.iteri
    (fun i (cells, care, _, _) ->
      ignore
        (Camsim.Simulator.write sim sub ~row_offset:i
           ~care:[| care |] [| cells |]))
    rules;

  let lookup bits =
    let _ =
      Camsim.Simulator.search sim sub ~queries:[| address bits |]
        ~row_offset:0 ~rows:(List.length rules) ~kind:`Exact
        ~metric:`Hamming ()
    in
    let matches = (Camsim.Simulator.read sim sub).(0) in
    (* exact match = zero mismatching care cells; rows are ordered most
       specific first *)
    let rec first i =
      if i >= Array.length matches then None
      else if matches.(i) = 0. then Some i
      else first (i + 1)
    in
    match first 0 with
    | Some i ->
        let _, _, prefix, hop = List.nth rules i in
        Printf.printf "%-16s -> %-12s (rule %d, prefix %S)\n" bits hop i
          prefix
    | None -> Printf.printf "%-16s -> no route\n" bits
  in
  print_endline "TCAM longest-prefix routing table lookups:";
  List.iter lookup
    [ "1011010"; "1011011"; "1011000"; "1010000"; "0110000"; "1111111" ];
  Printf.printf "\n%s\n"
    (Camsim.Stats.to_string (Camsim.Simulator.stats sim))
