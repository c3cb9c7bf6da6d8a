(* End-to-end integration: driver compile + simulator run against the
   software references, over workloads, metrics and all four
   optimization configurations. *)

let hdc_synth ?(dims = 128) ?(classes = 6) ?(q = 10) ?(bits = 1) () =
  Workloads.Hdc.synthetic ~seed:21 ~dims ~n_classes:classes ~n_queries:q
    ~bits ()

let reference_indices (c : C4cam.Driver.compiled) ~queries ~stored =
  match (c.info.output, C4cam.Driver.run_reference c ~queries ~stored) with
  | `Topk, [ _values; i ] -> Interp.Rtval.to_int_rows i
  | `Topk, [ i ] ->
      (* kernels that return indices only, like the paper's Figure 4a *)
      Interp.Rtval.to_int_rows i
  | `Scores, [ s ] ->
      Array.map
        (fun row -> [| Workloads.Distance.argmax row |])
        (Interp.Rtval.to_rows s)
  | _ -> Alcotest.fail "unexpected reference arity"

let test_hdc_cam_matches_reference_all_configs () =
  let data = hdc_synth () in
  List.iter
    (fun opt ->
      let spec = Archspec.Spec.square 32 opt in
      let c =
        C4cam.Driver.compile ~spec
          (Workloads.Kernels.hdc_dot ~q:10 ~dims:128 ~classes:6 ~k:1)
      in
      let r = C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored in
      let want = reference_indices c ~queries:data.queries ~stored:data.stored in
      Alcotest.(check Tutil.int_rows_testable)
        ("indices match under "
        ^ Archspec.Spec.optimization_to_string opt)
        want r.indices)
    Archspec.Spec.[ Base; Power; Density; Power_density ]

let test_hdc_across_subarray_sizes () =
  let data = hdc_synth ~dims:256 () in
  let src = Workloads.Kernels.hdc_dot ~q:10 ~dims:256 ~classes:6 ~k:1 in
  let reference = ref None in
  List.iter
    (fun side ->
      let spec = Archspec.Spec.square side Archspec.Spec.Base in
      let c = C4cam.Driver.compile ~spec src in
      let r = C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored in
      match !reference with
      | None -> reference := Some r.indices
      | Some want ->
          Alcotest.(check Tutil.int_rows_testable)
            (Printf.sprintf "same result at %dx%d" side side)
            want r.indices)
    [ 16; 32; 64; 128; 256 ]

let test_knn_cam_matches_software () =
  let ds =
    Workloads.Dataset.pneumonia_like ~seed:31 ~n_features:64
      ~samples_per_class:64 ()
  in
  let train, test = Workloads.Dataset.split ~seed:5 ds ~train_fraction:0.875 in
  let train =
    {
      train with
      Workloads.Dataset.features = Array.sub train.features 0 96;
      labels = Array.sub train.labels 0 96;
    }
  in
  let queries = Array.sub test.features 0 6 in
  let spec =
    { (Archspec.Spec.square 32 Archspec.Spec.Base) with
      cam_kind = Archspec.Spec.Mcam }
  in
  let c =
    C4cam.Driver.compile ~spec
      (Workloads.Kernels.knn_euclidean ~q:6 ~dims:64 ~n:96 ~k:5)
  in
  let r = C4cam.Driver.run_cam c ~queries ~stored:train.features in
  Array.iteri
    (fun i q ->
      let sw = Workloads.Knn.neighbours ~train ~k:5 q in
      let sw_idx = Array.map snd sw in
      Alcotest.(check (array int))
        (Printf.sprintf "query %d neighbours" i)
        sw_idx r.indices.(i))
    queries

let test_cosine_scores_ranking () =
  (* Cosine on binary data with equal-norm rows: CAM hamming ranking
     equals the cosine ranking. *)
  let rng = Rng.create 77 in
  let half_ones dims =
    (* equal Hamming weight => equal norms *)
    let v = Array.make dims 0. in
    let idx = Array.init dims (fun i -> i) in
    Rng.shuffle rng idx;
    for i = 0 to (dims / 2) - 1 do
      v.(idx.(i)) <- 1.
    done;
    v
  in
  let dims = 64 in
  let stored = Array.init 8 (fun _ -> half_ones dims) in
  let queries = Array.init 4 (fun _ -> half_ones dims) in
  let spec = Archspec.Spec.square 16 Archspec.Spec.Base in
  let c =
    C4cam.Driver.compile ~spec (Workloads.Kernels.cosine_scores ~q:4 ~dims ~n:8)
  in
  let r = C4cam.Driver.run_cam c ~queries ~stored in
  let scores = Option.get r.scores in
  Array.iteri
    (fun qi q ->
      let best_sw =
        Workloads.Distance.argmax
          (Array.map (Workloads.Distance.cosine q) stored)
      in
      (* CAM returns hamming distances: best = smallest *)
      let best_cam = Workloads.Distance.argmin scores.(qi) in
      Alcotest.(check int)
        (Printf.sprintf "query %d best match" qi)
        best_sw best_cam)
    queries

let test_power_config_tradeoff () =
  let data = hdc_synth ~dims:1024 () in
  let src = Workloads.Kernels.hdc_dot ~q:10 ~dims:1024 ~classes:6 ~k:1 in
  let run opt =
    let c = C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 opt) src in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
  in
  let base = run Archspec.Spec.Base in
  let power = run Archspec.Spec.Power in
  Alcotest.(check bool) "power is slower" true
    (power.latency > 1.5 *. base.latency);
  Tutil.check_float ~eps:1e-6 "energy unchanged (paper IV-C1)" base.energy
    power.energy;
  Alcotest.(check bool) "average power drops" true
    (power.power < 0.8 *. base.power)

let test_density_reduces_subarrays () =
  let data = hdc_synth ~dims:1024 ~classes:10 () in
  let src = Workloads.Kernels.hdc_dot ~q:10 ~dims:1024 ~classes:10 ~k:1 in
  let run opt =
    let c = C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 opt) src in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
  in
  let base = run Archspec.Spec.Base in
  let density = run Archspec.Spec.Density in
  Alcotest.(check int) "base subarrays" 32 base.stats.n_subarrays;
  Alcotest.(check int) "density subarrays (3 batches)" 11
    density.stats.n_subarrays;
  Alcotest.(check bool) "density is slower" true
    (density.latency > base.latency)

let test_multibit_run () =
  let data = hdc_synth ~bits:2 () in
  let spec = { (Archspec.Spec.square 32 Archspec.Spec.Base) with bits = 2 } in
  let c =
    C4cam.Driver.compile ~spec
      (Workloads.Kernels.hdc_dot ~q:10 ~dims:128 ~classes:6 ~k:1)
  in
  let r = C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored in
  let want = reference_indices c ~queries:data.queries ~stored:data.stored in
  Alcotest.(check Tutil.int_rows_testable) "multi-bit indices" want r.indices

let test_cim_software_equals_cam () =
  let data = hdc_synth () in
  let c =
    C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base)
      (Workloads.Kernels.hdc_dot ~q:10 ~dims:128 ~classes:6 ~k:1)
  in
  let cam = C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored in
  match C4cam.Driver.run_cim_software c ~queries:data.queries ~stored:data.stored with
  | [ _; i ] ->
      Alcotest.(check Tutil.int_rows_testable) "cim level agrees"
        (Interp.Rtval.to_int_rows i) cam.indices
  | _ -> Alcotest.fail "unexpected cim arity"

let test_validation_deviation_small () =
  let data = hdc_synth ~dims:2048 ~classes:10 ~q:32 () in
  let spec = Archspec.Spec.paper_config ~cols:64 () in
  let m = C4cam.Dse.hdc ~spec ~data () in
  let manual =
    C4cam.Validate.manual_similarity ~spec ~queries:32 ~stored_rows:10
      ~dims:2048 ~k:1 ()
  in
  let dev a b = Float.abs (a -. b) /. b in
  Alcotest.(check bool) "latency within 5%" true
    (dev m.latency manual.latency < 0.05);
  Alcotest.(check bool) "energy within 10%" true
    (dev m.energy manual.energy < 0.10);
  Alcotest.(check int) "same subarray count" m.subarrays manual.subarrays

(* The compiled HDC path's simulated costs against the paper's hand
   mapping (Sec. IV-B), re-derived from the energy model with no
   compiler or interpreter code, under the same technology: random
   shapes and 1- or 2-bit cells on 16/32/64 squares under all four
   optimisations, partly filled density slots and partly filled
   sequential levels included. *)
let prop_hdc_cost_oracle =
  QCheck.Test.make ~count:200 ~name:"hdc costs match the hand mapping"
    (QCheck.make
       ~print:(fun (side, opt, bits, q, n, d) ->
         Printf.sprintf "%dx%d %s %d-bit q=%d n=%d d=%d" side side
           (Archspec.Spec.optimization_to_string opt)
           bits q n d)
       QCheck.Gen.(
         let* side = oneofl [ 16; 32; 64 ] in
         let* opt =
           oneofl Archspec.Spec.[ Base; Power; Density; Power_density ]
         in
         let* q = int_range 1 16 in
         (* n within one subarray's rows, or a whole number of them, as
            cim-partition requires *)
         let* n =
           oneof [ int_range 1 side; map (fun m -> m * side) (int_range 2 4) ]
         in
         let* d = map (fun m -> m * side) (int_range 1 6) in
         let* bits = int_range 1 2 in
         return (side, opt, bits, q, n, d)))
    (fun (side, opt, bits, q, n, d) ->
      let spec = { (Archspec.Spec.square side opt) with bits } in
      let data =
        Workloads.Hdc.synthetic ~seed:(q + n + d) ~dims:d ~n_classes:n
          ~n_queries:q ~bits ()
      in
      let m = C4cam.Dse.hdc ~spec ~data () in
      let hand =
        C4cam.Validate.manual_similarity ~tech:Camsim.Tech.fefet_45nm ~spec
          ~queries:q ~stored_rows:n ~dims:d ~k:1 ()
      in
      let close a b = Float.abs (a -. b) <= 1e-12 *. Float.abs b in
      if not (close m.latency hand.latency && close m.energy hand.energy)
      then
        QCheck.Test.fail_reportf
          "latency %.17g vs hand %.17g, energy %.17g vs hand %.17g"
          m.latency hand.latency m.energy hand.energy;
      true)

let test_run_errors () =
  let c =
    C4cam.Driver.compile ~spec:Tutil.spec32
      (Workloads.Kernels.hdc_dot ~q:4 ~dims:64 ~classes:4 ~k:1)
  in
  let data = hdc_synth ~dims:64 ~classes:4 ~q:4 () in
  Alcotest.(check bool) "wrong query count rejected" true
    (match
       C4cam.Driver.run_cam c ~queries:(Array.sub data.queries 0 2)
         ~stored:data.stored
     with
    | _ -> false
    | exception C4cam.Driver.Compile_error _ -> true)

let test_compile_errors () =
  Alcotest.(check bool) "parse error surfaces" true
    (match C4cam.Driver.compile ~spec:Tutil.spec32 "def oops(" with
    | _ -> false
    | exception C4cam.Driver.Compile_error _ -> true);
  (* a kernel with no similarity pattern *)
  let src =
    "def forward(x: Tensor[4, 8], w: Tensor[4, 8]):\n\
    \    t = w.transpose(-2, -1)\n\
    \    m = torch.matmul(x, t)\n\
    \    return m\n"
  in
  Alcotest.(check bool) "no pattern detected" true
    (match C4cam.Driver.compile ~spec:Tutil.spec32 src with
    | _ -> false
    | exception C4cam.Driver.Compile_error _ -> true)

let test_paper_verbatim_kernel () =
  (* The literal Figure 4a kernel: 10x8192 queries, top-1 with
     largest=False (i.e. the *least* similar class; unusual, but the
     compiler must preserve it: dot largest=false maps to the LARGEST
     hamming distance). *)
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  let c = C4cam.Driver.compile ~spec Workloads.Kernels.hdc_dot_paper in
  Alcotest.(check int) "q" 10 c.info.q;
  Alcotest.(check int) "d" 8192 c.info.d;
  (* Bipolar hypervectors (as in the HDC literature the kernel comes
     from): dot = dims - 2*hamming exactly, so even the unusual
     least-similar selection is rank-exact on the CAM. *)
  let data =
    Workloads.Hdc.synthetic ~seed:61 ~bipolar:true ~dims:8192 ~n_classes:10
      ~n_queries:10 ~bits:1 ()
  in
  let r = C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored in
  let want = reference_indices c ~queries:data.queries ~stored:data.stored in
  Alcotest.(check Tutil.int_rows_testable) "largest=false preserved" want
    r.indices;
  (* sanity: with noise, the least-similar class differs from the true
     label for every query *)
  Array.iteri
    (fun i (row : int array) ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d picks a far class" i)
        true
        (row.(0) <> data.query_labels.(i)))
    r.indices

(* Random end-to-end property: for random workload geometry and device
   size, the compiled CAM pipeline reproduces the torch reference. *)
let prop_random_e2e =
  QCheck.Test.make ~count:25 ~name:"random workloads match the reference"
    (QCheck.make
       QCheck.Gen.(
         let* side_ix = int_range 0 2 in
         let* dims_mult = int_range 1 4 in
         let* classes = int_range 2 12 in
         let* q = int_range 1 8 in
         let* seed = int_range 0 10000 in
         return (side_ix, dims_mult, classes, q, seed)))
    (fun (side_ix, dims_mult, classes, q, seed) ->
      let side = List.nth [ 16; 32; 64 ] side_ix in
      let dims = side * dims_mult in
      let spec = Archspec.Spec.square side Archspec.Spec.Base in
      let c =
        C4cam.Driver.compile ~spec
          (Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1)
      in
      let data =
        Workloads.Hdc.synthetic ~seed ~bipolar:true ~dims
          ~n_classes:classes ~n_queries:q ~bits:1 ()
      in
      let r =
        C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
      in
      let want =
        reference_indices c ~queries:data.queries ~stored:data.stored
      in
      r.indices = want)

let test_trace_of_compiled_run () =
  (* The device-op trace of a compiled run matches the mapping
     arithmetic: one write/search/read/merge chain per tile, one final
     selection. *)
  let data = hdc_synth ~dims:1024 ~classes:10 () in
  let c =
    C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base)
      (Workloads.Kernels.hdc_dot ~q:10 ~dims:1024 ~classes:10 ~k:1)
  in
  let trace = Camsim.Trace.create () in
  let _ =
    C4cam.Driver.run_cam
      ~config:C4cam.Driver.Run_config.(default |> with_trace trace)
      c ~queries:data.queries ~stored:data.stored
  in
  let events = Camsim.Trace.events trace in
  let count pred = List.length (List.filter pred events) in
  (* 1024/32 = 32 tiles; 32 subarrays + 4 arrays + 1 mat + 1 bank *)
  Alcotest.(check int) "writes" 32
    (count (function Camsim.Trace.Write _ -> true | _ -> false));
  Alcotest.(check int) "searches" 32
    (count (function Camsim.Trace.Search _ -> true | _ -> false));
  Alcotest.(check int) "merges" 32
    (count (function Camsim.Trace.Merge _ -> true | _ -> false));
  Alcotest.(check int) "one selection" 1
    (count (function Camsim.Trace.Select _ -> true | _ -> false));
  Alcotest.(check int) "allocations" 38
    (count (function Camsim.Trace.Alloc _ -> true | _ -> false));
  (* every search covers the 10 stored rows with 10 queries *)
  List.iter
    (function
      | Camsim.Trace.Search { queries; rows; kind; _ } ->
          Alcotest.(check int) "queries per search" 10 queries;
          Alcotest.(check int) "active rows" 10 rows;
          Alcotest.(check string) "best-match sensing" "best" kind
      | _ -> ())
    events

let test_defect_tolerance_e2e () =
  (* End-to-end: moderate defects leave HDC predictions intact; massive
     defects destroy them. *)
  let data = hdc_synth ~dims:512 ~classes:8 ~q:24 () in
  let c =
    C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base)
      (Workloads.Kernels.hdc_dot ~q:24 ~dims:512 ~classes:8 ~k:1)
  in
  let accuracy rate =
    let r =
      C4cam.Driver.run_cam
        ~config:
          C4cam.Driver.Run_config.(default |> with_defects ~seed:3 rate)
        c ~queries:data.queries ~stored:data.stored
    in
    let correct = ref 0 in
    Array.iteri
      (fun i (row : int array) ->
        if row.(0) = data.query_labels.(i) then incr correct)
      r.indices;
    float_of_int !correct /. 24.
  in
  Alcotest.(check bool) "10% defects: still accurate" true
    (accuracy 0.10 >= 0.9);
  Alcotest.(check bool) "near-random storage: accuracy collapses" true
    (accuracy 0.95 < 0.6)

let test_clone_module_is_deep () =
  let m = Tutil.hdc_torch () in
  let m' = C4cam.Driver.clone_module m in
  let fn' = Ir.Func_ir.find_func_exn m' "forward" in
  fn'.fn_body.body <- [];
  let fn = Ir.Func_ir.find_func_exn m "forward" in
  Alcotest.(check bool) "original untouched" true
    (List.length fn.fn_body.body = 4)

let () =
  Alcotest.run "e2e"
    [
      ( "functional",
        [
          Alcotest.test_case "hdc all configs" `Quick
            test_hdc_cam_matches_reference_all_configs;
          Alcotest.test_case "hdc across sizes" `Quick
            test_hdc_across_subarray_sizes;
          Alcotest.test_case "knn neighbours" `Quick
            test_knn_cam_matches_software;
          Alcotest.test_case "cosine ranking" `Quick
            test_cosine_scores_ranking;
          Alcotest.test_case "multi-bit" `Quick test_multibit_run;
          Alcotest.test_case "cim level agrees" `Quick
            test_cim_software_equals_cam;
          Alcotest.test_case "paper verbatim kernel" `Quick
            test_paper_verbatim_kernel;
          QCheck_alcotest.to_alcotest prop_random_e2e;
        ] );
      ( "architectural",
        [
          Alcotest.test_case "power tradeoff" `Quick
            test_power_config_tradeoff;
          Alcotest.test_case "density utilization" `Quick
            test_density_reduces_subarrays;
          Alcotest.test_case "validation deviation" `Quick
            test_validation_deviation_small;
          Alcotest.test_case "trace of compiled run" `Quick
            test_trace_of_compiled_run;
          Alcotest.test_case "defect tolerance" `Quick
            test_defect_tolerance_e2e;
          QCheck_alcotest.to_alcotest prop_hdc_cost_oracle;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "run errors" `Quick test_run_errors;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
          Alcotest.test_case "deep clone" `Quick test_clone_module_is_deep;
        ] );
    ]
