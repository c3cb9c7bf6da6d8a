(* K-nearest-neighbour classification of pneumonia-like image features
   (the paper's second benchmark) on an MCAM with Euclidean best-match
   search.

   The TorchScript kernel is the batched broadcast idiom
   (query - stored, norm, topk); C4CAM recognises it as the
   Euclidean-norm pattern of Algorithm 1, partitions it over the
   subarrays and maps it onto the hierarchy. The returned neighbour
   lists are validated against the exact software KNN.

   Run with:  dune exec examples/knn_pneumonia.exe *)

let n_train = 512
let n_features = 256
let k = 7

let () =
  let ds =
    Workloads.Dataset.pneumonia_like ~seed:17 ~n_features
      ~samples_per_class:280 ()
  in
  let train, test = Workloads.Dataset.split ~seed:21 ds ~train_fraction:0.94 in
  let train =
    {
      train with
      Workloads.Dataset.features = Array.sub train.features 0 n_train;
      labels = Array.sub train.labels 0 n_train;
    }
  in
  let queries = Array.sub test.features 0 16 in
  let labels = Array.sub test.labels 0 16 in
  let q = Array.length queries in
  Printf.printf "KNN: %d stored patterns x %d features, %d queries, k=%d\n"
    n_train n_features q k;

  let source =
    Workloads.Kernels.knn_euclidean ~q ~dims:n_features ~n:n_train ~k
  in
  print_string "\nTorchScript kernel:\n";
  print_string source;

  List.iter
    (fun opt ->
      let spec =
        { (Archspec.Spec.square 32 opt) with cam_kind = Archspec.Spec.Mcam }
      in
      let compiled = C4cam.Driver.compile ~spec source in
      let r = C4cam.Driver.run_cam compiled ~queries ~stored:train.features in

      (* Validate the neighbour lists against software KNN. *)
      let exact_matches = ref 0 in
      Array.iteri
        (fun i query ->
          let sw = Workloads.Knn.neighbours ~train ~k query in
          if Array.map snd sw = r.indices.(i) then incr exact_matches)
        queries;

      (* Majority-vote classification accuracy. *)
      let correct = ref 0 in
      Array.iteri
        (fun i (row : int array) ->
          let votes = Array.make train.n_classes 0 in
          Array.iter
            (fun idx ->
              votes.(train.labels.(idx)) <- votes.(train.labels.(idx)) + 1)
            row;
          let best = if votes.(1) > votes.(0) then 1 else 0 in
          if best = labels.(i) then incr correct)
        r.indices;

      Printf.printf
        "\n%-24s neighbour lists exact: %d/%d | accuracy %d/%d\n"
        (C4cam.Dse.config_name spec)
        !exact_matches q !correct q;
      Printf.printf
        "  latency %s | energy %s | power %s | EDP %.3e J.s | %d subarrays, %d banks\n"
        (C4cam.Report.si_time r.latency)
        (C4cam.Report.si_energy r.energy)
        (C4cam.Report.si_power r.power)
        (r.energy *. r.latency)
        r.stats.n_subarrays r.stats.n_banks)
    Archspec.Spec.[ Base; Power ]
