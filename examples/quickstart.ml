(* Quickstart: compile the paper's HDC dot-similarity kernel from
   TorchScript down to CAM calls, run it on the simulated accelerator,
   and cross-check the result against the torch-level software
   reference.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A tiny workload: 4 class prototypes of 256 bits, 8 queries. *)
  let synth =
    Workloads.Hdc.synthetic ~dims:256 ~n_classes:4 ~n_queries:8 ~bits:1 ()
  in
  let q = Array.length synth.queries in

  (* 2. The TorchScript kernel (same shape as the paper's Figure 4a). *)
  let source = Workloads.Kernels.hdc_dot ~q ~dims:256 ~classes:4 ~k:1 in
  print_string "== TorchScript input ==";
  print_string source;

  (* 3. Compile for a 32x32 TCAM accelerator. *)
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  let compiled = C4cam.Driver.compile ~spec source in
  print_endline "== torch IR ==";
  print_string (Ir.Printer.module_to_string compiled.torch_ir);

  (* 4. Run on the CAM simulator. *)
  let result =
    C4cam.Driver.run_cam compiled ~queries:synth.queries
      ~stored:synth.stored
  in
  Printf.printf "\n== CAM run ==\nlatency  %.3e s\nenergy   %.3e J\npower    %.3f W\n"
    result.latency result.energy result.power;
  Printf.printf "%s\n" (Camsim.Stats.to_string result.stats);

  (* 5. Compare predictions against the software reference. *)
  let reference =
    C4cam.Driver.run_reference compiled ~queries:synth.queries
      ~stored:synth.stored
  in
  let ref_indices =
    match reference with
    | [ _values; indices ] -> Interp.Rtval.to_int_rows indices
    | _ -> failwith "unexpected reference result"
  in
  let agree = ref 0 in
  Array.iteri
    (fun i row ->
      if row.(0) = ref_indices.(i).(0) then incr agree)
    result.indices;
  Printf.printf "\npredictions matching the software reference: %d/%d\n"
    !agree q;
  let correct = ref 0 in
  Array.iteri
    (fun i row ->
      if row.(0) = synth.query_labels.(i) then incr correct)
    result.indices;
  Printf.printf "classification accuracy on noisy queries: %d/%d\n" !correct q
