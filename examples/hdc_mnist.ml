(* Hyperdimensional-computing classification on a synthetic MNIST-like
   dataset (the paper's first benchmark), end to end:

     pixels -> HDC encoding -> class prototypes (training)
            -> TorchScript similarity kernel -> C4CAM -> CAM simulator

   The CAM's predictions are compared against the pure-software HDC
   reference, and the run is repeated for binary and 2-bit prototypes
   (the two implementations validated in Figure 7).

   Run with:  dune exec examples/hdc_mnist.exe *)

let dims = 2048
let n_classes = 10

let () =
  (* 1. Data: 10 digit-like classes, 64 features. *)
  let ds =
    Workloads.Dataset.mnist_like ~seed:5 ~n_features:64 ~n_classes
      ~samples_per_class:30 ()
  in
  let train, test = Workloads.Dataset.split ~seed:9 ds ~train_fraction:0.7 in
  Printf.printf "dataset: %d train / %d test samples, %d features\n"
    (Workloads.Dataset.n_samples train)
    (Workloads.Dataset.n_samples test)
    (Workloads.Dataset.n_features ds);

  List.iter
    (fun bits ->
      Printf.printf "\n--- %d-bit HDC, %d dims ---\n" bits dims;
      (* 2. Train: encode every training sample, bundle per class. *)
      let config =
        { Workloads.Hdc.default_config with dims; levels = 8; bits }
      in
      let im, model = Workloads.Hdc.train config train in
      let sw_acc = Workloads.Hdc.accuracy_ref model im test in

      (* 3. Encode the test queries and run them through the compiler. *)
      let queries =
        Array.map (Workloads.Hdc.encode config im) test.features
      in
      let q = Array.length queries in
      let source = Workloads.Kernels.hdc_dot ~q ~dims ~classes:n_classes ~k:1 in
      let spec =
        { (Archspec.Spec.square 32 Archspec.Spec.Base) with bits }
      in
      let compiled = C4cam.Driver.compile ~spec source in
      let r =
        C4cam.Driver.run_cam compiled ~queries ~stored:model.class_hvs
      in

      (* 4. Report. *)
      let correct = ref 0 in
      Array.iteri
        (fun i (row : int array) ->
          if row.(0) = test.labels.(i) then incr correct)
        r.indices;
      Printf.printf "software accuracy : %.1f%%\n" (sw_acc *. 100.);
      Printf.printf "CAM accuracy      : %.1f%% (%d/%d)\n"
        (float_of_int !correct /. float_of_int q *. 100.)
        !correct q;
      Printf.printf "latency %s | energy %s | power %s | %d subarrays\n"
        (C4cam.Report.si_time r.latency)
        (C4cam.Report.si_energy r.energy)
        (C4cam.Report.si_power r.power)
        r.stats.n_subarrays)
    [ 1; 2 ]
