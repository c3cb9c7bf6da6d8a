(* CAM vs crossbar for similarity search — the comparison implicit in
   the paper's framing: general CIM compilers target crossbars, but
   search-dominated kernels want CAMs.

   The same HDC classification task runs both ways:
   - C4CAM path: the similarity kernel fused by Algorithm 1 and mapped
     onto TCAM subarrays (one best-match search);
   - crossbar path (Figure 3's sibling device dialect): the score matrix
     computed as a matmul on ReRAM tiles, top-1 selected on the host.

   Both produce the same predictions; the latency/energy gap is the
   point.

   Run with:  dune exec examples/crossbar_vs_cam.exe *)

let dims = 4096
let classes = 10
let q = 32

let () =
  let data =
    Workloads.Hdc.synthetic ~seed:15 ~dims ~n_classes:classes ~n_queries:q
      ~bits:1 ()
  in

  (* --- CAM path -------------------------------------------------------- *)
  let cam =
    C4cam.Dse.hdc ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base) ~data ()
  in

  (* --- crossbar path --------------------------------------------------- *)
  let xspec = { Xbar.default_spec with tile_rows = 128; tile_cols = 10 } in
  let xc =
    C4cam.Driver.compile_crossbar ~xspec
      (Workloads.Kernels.matmul ~m:q ~k:dims ~n:classes)
  in
  let weights =
    Array.init dims (fun d ->
        Array.init classes (fun c -> data.stored.(c).(d)))
  in
  let xr = C4cam.Driver.run_crossbar xc ~inputs:data.queries ~weights in
  let x_correct = ref 0 in
  Array.iteri
    (fun i row ->
      if Workloads.Distance.argmax row = data.query_labels.(i) then
        incr x_correct)
    xr.product;

  Printf.printf "HDC classification, %d queries x %d dims, %d classes\n\n"
    q dims classes;
  print_string
    (C4cam.Report.table
       ~headers:[ "fabric"; "latency"; "energy"; "EDP"; "accuracy" ]
       [
         [
           "TCAM (C4CAM similarity)";
           C4cam.Report.si_time cam.latency;
           C4cam.Report.si_energy cam.energy;
           Printf.sprintf "%.2e J.s" (cam.energy *. cam.latency);
           Printf.sprintf "%.0f%%" (cam.accuracy *. 100.);
         ];
         [
           "ReRAM crossbar (matmul) + host top-1";
           C4cam.Report.si_time xr.x_latency;
           C4cam.Report.si_energy xr.x_energy;
           Printf.sprintf "%.2e J.s" (xr.x_energy *. xr.x_latency);
           Printf.sprintf "%.0f%%"
             (float_of_int !x_correct /. float_of_int q *. 100.);
         ];
       ]);
  Printf.printf
    "\nsearch on the CAM is %.1fx faster and %.1fx better in EDP than\n\
     computing scores on a crossbar — the reason search-dominated\n\
     kernels want a CAM-aware compiler.\n"
    (xr.x_latency /. cam.latency)
    (xr.x_energy *. xr.x_latency /. (cam.energy *. cam.latency))
