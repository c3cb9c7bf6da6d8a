(* Cost-model-driven heterogeneous placement: legality and pricing of
   the candidate enumeration, movement-cost monotonicity, the price as
   the simulators' ledger (zero-row price runs against runs on random
   data, and every executable split's priced total against its executed
   total), bit-exact differential execution of every executable split
   against the all-CAM reference (across jobs values), and the RecSys
   workload where a mixed placement beats every single-backend
   mapping. *)

module P = Passes.Placement

let base32 = Archspec.Spec.square 32 Archspec.Spec.Base

let dot_stages =
  [
    P.Score { q = 4; n = 16; d = 64; metric = Dialects.Cim.Dot };
    P.Select { q = 4; n = 16; k = 1 };
  ]

let recsys_data =
  lazy
    (Workloads.Recsys.generate ~users:8 ~features:64 ~items:64 ~classes:8 ())

(* gemv 8x64x64, Euclidean score over 8 prototypes of 64 dims, top-1 *)
let recsys_stages =
  lazy (C4cam.Hetero.recsys_stages (Lazy.force recsys_data) ~k:1)

let recsys_models =
  lazy
    (C4cam.Hetero.models
       (C4cam.Hetero.recsys_kernel ~spec:base32 ~data:(Lazy.force recsys_data)
          ~k:1))

let dot_models =
  lazy
    (C4cam.Hetero.models
       (C4cam.Driver.compile ~spec:base32
          (Workloads.Kernels.hdc_dot ~q:4 ~dims:64 ~classes:16 ~k:1)))

(* ---- enumeration and legality ---------------------------------------- *)

let test_enumerate_dot () =
  let names =
    List.map (P.assignment_name dot_stages) (P.enumerate dot_stages)
  in
  Alcotest.(check (list string))
    "legal dot assignments"
    [
      "score=cam select=cam";
      "score=cam select=host";
      "score=xbar select=host";
      "score=host select=host";
    ]
    names;
  (* select on CAM requires the score there too *)
  Alcotest.(check bool)
    "xbar score cannot feed cam select" false
    (P.legal dot_stages [ P.Xbar; P.Cam ])

let test_enumerate_recsys () =
  let recsys_stages = Lazy.force recsys_stages in
  (* gemv in {xbar, host} x (score, select) in {(cam, cam), (host,
     host)}: a CAM Euclidean score has no scores form to hand the host *)
  Alcotest.(check int)
    "recsys candidates" 4
    (List.length (P.enumerate recsys_stages));
  Alcotest.(check bool)
    "cam euclidean score cannot feed a host select" false
    (P.legal recsys_stages [ P.Host; P.Cam; P.Host ]);
  Alcotest.(check (list string))
    "single-backend conventions"
    [
      "gemv=host score=cam select=cam";
      "gemv=xbar score=host select=host";
      "gemv=host score=host select=host";
    ]
    (List.map
       (fun d -> P.assignment_name recsys_stages (P.single recsys_stages d))
       [ P.Cam; P.Xbar; P.Host ])

let test_illegal_priced_rejected () =
  let models = Lazy.force dot_models in
  Tutil.check_raises_invalid "illegal assignment" (fun () ->
      P.price models dot_stages [ P.Xbar; P.Cam ])

(* ---- movement-cost monotonicity --------------------------------------- *)

(* Making the link strictly worse (or turning movement on at all) never
   makes any candidate cheaper, and leaves cut-free candidates
   untouched. *)
let test_movement_monotonic () =
  let recsys_stages = Lazy.force recsys_stages in
  let models = Lazy.force recsys_models in
  let free_link = { P.bw = infinity; e_per_byte = 0.; t_fixed = 0. } in
  let worse_link =
    {
      P.bw = models.link.bw /. 8.;
      e_per_byte = models.link.e_per_byte *. 8.;
      t_fixed = models.link.t_fixed *. 8.;
    }
  in
  List.iter
    (fun a ->
      let free = P.price { models with link = free_link } recsys_stages a in
      let base = P.price models recsys_stages a in
      let worse = P.price { models with link = worse_link } recsys_stages a in
      let name = P.assignment_name recsys_stages a in
      if base.p_moved_bytes = 0 then begin
        Tutil.check_float (name ^ ": no cut, same latency")
          free.p_total.latency base.p_total.latency;
        Tutil.check_float (name ^ ": no cut, same energy")
          free.p_total.energy base.p_total.energy
      end
      else begin
        Alcotest.(check bool)
          (name ^ ": movement never cheapens latency")
          true
          (base.p_total.latency >= free.p_total.latency
          && worse.p_total.latency >= base.p_total.latency);
        Alcotest.(check bool)
          (name ^ ": movement never cheapens energy")
          true
          (base.p_total.energy >= free.p_total.energy
          && worse.p_total.energy >= base.p_total.energy)
      end)
    (P.enumerate recsys_stages)

let test_table_marks_choice () =
  let models = Lazy.force dot_models in
  let t = P.table ~objective:P.Energy models dot_stages in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "table marks the chosen row" true
    (contains t "<- chosen")

(* ---- the price is the ledger ------------------------------------------ *)

(* Everything a price run must reproduce of a run on real data. *)
let ledger (r : C4cam.Driver.run_result) =
  ( (r.latency, r.energy),
    (r.stats.n_search_ops, r.stats.n_write_ops, r.stats.n_query_cycles),
    r.ops_executed )

let price_matches ?(spec = base32) source ~queries ~stored =
  let c = C4cam.Driver.compile ~spec source in
  ledger (C4cam.Driver.price c)
  = ledger (C4cam.Driver.run_cam c ~queries ~stored)

let dse_specs =
  List.concat_map
    (fun side ->
      List.map (Archspec.Spec.square side)
        Archspec.Spec.[ Base; Power; Density; Power_density ])
    [ 16; 32; 64 ]

(* Every registry Kernel workload on every DSE spec, on the workload's
   own data drawn from a random seed. *)
let prop_price_registry =
  QCheck.Test.make ~count:2 ~name:"price = ledger, registry x 12 specs"
    QCheck.(int_range 0 1000)
    (fun seed ->
      List.for_all
        (fun (e : Workloads.Registry.entry) ->
          match e.exec with
          | Kernel instance ->
              let shape = { e.default_shape with seed } in
              List.for_all
                (fun spec ->
                  let spec = e.fix_spec shape spec in
                  let ki = instance shape spec in
                  price_matches ~spec ki.ki_source ~queries:ki.ki_queries
                    ~stored:ki.ki_stored)
                dse_specs
          | Direct _ | Range _ -> true)
        Workloads.Registry.all)

let rows st ~levels r c =
  Array.init r (fun _ ->
      Array.init c (fun _ -> float_of_int (Random.State.int st levels)))

(* Random hdc, knn and cosine shapes on random specs and data. *)
let prop_price_shapes =
  QCheck.Test.make ~count:30 ~name:"price = ledger, random shapes"
    QCheck.(
      make
        Gen.(
          tup4 (int_bound 2)
            (tup3 (int_range 1 8)
               (oneofl [ 2; 5; 10; 16; 32; 64; 128 ])
               (oneofl [ 64; 128; 256; 1024 ]))
            (pair (oneofl [ 16; 32; 64 ])
               (oneofl Archspec.Spec.[ Base; Power; Density; Power_density ]))
            int))
    (fun (kind, (q, n, d), (side, opt), seed) ->
      let st = Random.State.make [| seed |] in
      let spec = Archspec.Spec.square side opt in
      let k = 1 + (seed land 1) in
      match kind with
      | 0 ->
          price_matches ~spec
            (Workloads.Kernels.hdc_dot ~q ~dims:d ~classes:n ~k)
            ~queries:(rows st ~levels:2 q d) ~stored:(rows st ~levels:2 n d)
      | 1 ->
          price_matches
            ~spec:{ spec with cam_kind = Archspec.Spec.Mcam }
            (Workloads.Kernels.knn_euclidean ~q ~dims:d ~n ~k)
            ~queries:(rows st ~levels:4 q d) ~stored:(rows st ~levels:4 n d)
      | _ ->
          price_matches ~spec
            (Workloads.Kernels.cosine_scores ~q ~dims:d ~n)
            ~queries:(rows st ~levels:2 q d) ~stored:(rows st ~levels:2 n d))

(* Dense and power+density mappings, one query or few: the shapes where
   a CAM price depends most on the per-level timing rules. *)
let test_price_probe_shapes () =
  let st = Random.State.make [| 5 |] in
  List.iter
    (fun (side, opt, q, n, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d q=%d n=%d d=%d" side side q n d)
        true
        (price_matches
           ~spec:(Archspec.Spec.square side opt)
           (Workloads.Kernels.hdc_dot ~q ~dims:d ~classes:n ~k:1)
           ~queries:(rows st ~levels:2 q d) ~stored:(rows st ~levels:2 n d)))
    Archspec.Spec.
      [
        (64, Density, 1, 5, 64);
        (32, Density, 1, 5, 64);
        (16, Power_density, 16, 10, 1024);
        (64, Power_density, 16, 10, 1024);
      ]

let prop_price_crossbar =
  QCheck.Test.make ~count:20 ~name:"price = ledger, crossbar matmul"
    QCheck.(
      make
        Gen.(
          tup4 (int_range 1 16)
            (oneofl [ 10; 64; 128; 256; 512; 1024 ])
            (oneofl [ 10; 128; 256 ]) int))
    (fun (m, k, n, seed) ->
      let st = Random.State.make [| seed |] in
      let fit dim = if dim mod 128 = 0 then 128 else dim in
      let c =
        C4cam.Driver.compile_crossbar
          ~xspec:{ Xbar.default_spec with tile_rows = fit k; tile_cols = fit n }
          (Workloads.Kernels.matmul ~m ~k ~n)
      in
      let x_ledger (r : C4cam.Driver.crossbar_result) =
        (r.x_latency, r.x_energy, r.x_stats)
      in
      x_ledger (C4cam.Driver.price_crossbar c)
      = x_ledger
          (C4cam.Driver.run_crossbar c ~inputs:(rows st ~levels:4 m k)
             ~weights:(rows st ~levels:4 k n)))

(* Every executable split of the hdc kernel and of recsys reports the
   total that Placement.price gives it, bit for bit. *)
let test_priced_is_executed () =
  let q, dims, classes = (4, 256, 16) in
  let data =
    Workloads.Hdc.synthetic ~seed:9 ~dims ~n_classes:classes ~n_queries:q
      ~bits:1 ()
  in
  let c =
    C4cam.Driver.compile ~spec:base32
      (Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1)
  in
  let stages = C4cam.Hetero.stages_of_info c.info in
  let models = C4cam.Hetero.models c in
  let fixed a =
    C4cam.Driver.Run_config.(default |> with_placement (`Fixed a))
  in
  let check stages models a (pr : C4cam.Hetero.placed_result) =
    let priced = P.price models stages a in
    (* a zero tolerance: equal as floats, bit for bit *)
    Alcotest.(check (pair (float 0.) (float 0.)))
      (P.assignment_name stages a)
      (priced.p_total.latency, priced.p_total.energy)
      (pr.pr_priced.p_total.latency, pr.pr_priced.p_total.energy)
  in
  let hdc = P.enumerate stages in
  Alcotest.(check int) "four hdc splits" 4 (List.length hdc);
  List.iter
    (fun a ->
      check stages models a
        (C4cam.Hetero.run_placed ~config:(fixed a) c ~queries:data.queries
           ~stored:data.stored))
    hdc;
  let data = Lazy.force recsys_data in
  let stages = Lazy.force recsys_stages in
  let recsys = P.enumerate stages in
  Alcotest.(check int) "four recsys splits" 4 (List.length recsys);
  List.iter
    (fun a ->
      check stages (Lazy.force recsys_models) a
        (C4cam.Hetero.run_recsys ~config:(fixed a) ~spec:base32 ~data ~k:1 ()))
    recsys

(* ---- differential execution ------------------------------------------ *)

let executable_dot =
  P.[ [ Cam; Cam ]; [ Cam; Host ]; [ Xbar; Host ]; [ Host; Host ] ]

(* Every executable split of the HDC kernel reproduces the all-CAM
   values and indices byte for byte, for any jobs value. dims/classes
   are multiples of the crossbar's 128x128 tile so the xbar leg
   exercises the real tiling. *)
let prop_placed_differential =
  QCheck.Test.make ~count:3
    ~name:"placed splits are byte-identical to all-CAM"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let q, dims, classes = (6, 256, 128) in
      let source = Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
      let data =
        Workloads.Hdc.synthetic ~seed ~dims ~n_classes:classes ~n_queries:q
          ~bits:1 ()
      in
      let reference =
        let c = C4cam.Driver.compile ~spec:base32 source in
        C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
      in
      List.for_all
        (fun jobs ->
          Parallel.run ~jobs @@ fun _pool ->
          List.for_all
            (fun a ->
              let config =
                C4cam.Driver.Run_config.(default |> with_placement (`Fixed a))
              in
              let c = C4cam.Driver.compile ~spec:base32 source in
              let pr =
                C4cam.Hetero.run_placed ~config c ~queries:data.queries
                  ~stored:data.stored
              in
              pr.pr_values = reference.values
              && pr.pr_indices = reference.indices)
            executable_dot)
        [ 1; 4 ])

let test_auto_is_executable () =
  let q, dims, classes = (4, 256, 128) in
  let data =
    Workloads.Hdc.synthetic ~seed:3 ~dims ~n_classes:classes ~n_queries:q
      ~bits:1 ()
  in
  let c =
    C4cam.Driver.compile ~spec:base32
      (Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1)
  in
  List.iter
    (fun objective ->
      let config =
        C4cam.Driver.Run_config.default
        |> C4cam.Driver.Run_config.with_placement `Auto
        |> C4cam.Driver.Run_config.with_place_objective objective
      in
      let pr =
        C4cam.Hetero.run_placed ~config c ~queries:data.queries
          ~stored:data.stored
      in
      Alcotest.(check int)
        (P.objective_name objective ^ ": candidates")
        (List.length executable_dot)
        pr.pr_candidates;
      Alcotest.(check bool)
        (P.objective_name objective ^ ": executable choice")
        true
        (List.mem pr.pr_priced.p_assignment executable_dot))
    [ P.Latency; P.Energy; P.Edp ]

let test_non_executable_pin_rejected () =
  (* Euclidean has no scores-form fusion pattern: (cam, host) must be
     refused, not silently approximated. *)
  let c =
    C4cam.Driver.compile
      ~spec:{ base32 with cam_kind = Archspec.Spec.Mcam }
      (Workloads.Kernels.knn_euclidean ~q:2 ~dims:64 ~n:32 ~k:1)
  in
  let data =
    Workloads.Hdc.synthetic ~seed:5 ~dims:64 ~n_classes:32 ~n_queries:2
      ~bits:1 ()
  in
  let config =
    C4cam.Driver.Run_config.with_placement
      (`Fixed [ P.Cam; P.Host ])
      C4cam.Driver.Run_config.default
  in
  Alcotest.(check bool)
    "non-executable pin rejected" true
    (match
       C4cam.Hetero.run_placed ~config c ~queries:data.queries
         ~stored:data.stored
     with
    | _ -> false
    | exception C4cam.Driver.Compile_error _ -> true)

(* A pin names one device per stage: recsys has three, and a
   two-device pin is refused with the stage count. *)
let test_wrong_length_pin_rejected () =
  let config =
    C4cam.Driver.Run_config.with_placement
      (`Fixed [ P.Xbar; P.Host ])
      C4cam.Driver.Run_config.default
  in
  match
    C4cam.Hetero.run_recsys ~config ~spec:base32
      ~data:(Lazy.force recsys_data) ~k:1 ()
  with
  | _ -> Alcotest.fail "a two-device pin of a three-stage pipeline ran"
  | exception C4cam.Driver.Compile_error msg ->
      Alcotest.(check string)
        "names the stage count"
        "placement pins 2 devices; the pipeline has 3 stages" msg

(* ---- the RecSys mixed-placement win ----------------------------------- *)

let run_recsys placement =
  C4cam.Hetero.run_recsys
    ~config:C4cam.Driver.Run_config.(default |> with_placement placement)
    ~spec:base32 ~data:(Lazy.force recsys_data) ~k:1 ()

let energy (r : C4cam.Hetero.placed_result) = r.pr_priced.p_total.energy

let test_recsys_mixed_beats_singles () =
  let stages = Lazy.force recsys_stages in
  let auto = run_recsys `Auto in
  let singles =
    List.map
      (fun dev -> run_recsys (`Fixed (P.single stages dev)))
      [ P.Cam; P.Xbar; P.Host ]
  in
  (* the chosen split is genuinely mixed (not any single mapping) ... *)
  Alcotest.(check bool)
    "auto picks a mixed assignment" true
    (List.for_all
       (fun (s : C4cam.Hetero.placed_result) ->
         s.pr_placement <> auto.pr_placement)
       singles);
  (* ... and strictly cheaper than every single-backend mapping *)
  List.iter
    (fun (s : C4cam.Hetero.placed_result) ->
      Alcotest.(check bool)
        (Printf.sprintf "mixed (%s) beats %s on energy" auto.pr_placement
           s.pr_placement)
        true
        (energy auto < energy s))
    singles;
  (* every executable placement returns identical recommendations *)
  List.iter
    (fun (s : C4cam.Hetero.placed_result) ->
      Alcotest.(check bool)
        (s.pr_placement ^ " matches auto results")
        true
        (s.pr_indices = auto.pr_indices && s.pr_values = auto.pr_values))
    singles

let test_recsys_all_assignments_agree () =
  let data = Lazy.force recsys_data in
  let outcomes =
    List.map
      (fun a -> run_recsys (`Fixed a))
      (P.enumerate (Lazy.force recsys_stages))
  in
  match outcomes with
  | [] -> Alcotest.fail "no executable recsys assignments"
  | first :: rest ->
      Alcotest.(check int) "four executable assignments" 4
        (List.length outcomes);
      List.iter
        (fun (o : C4cam.Hetero.placed_result) ->
          Alcotest.(check bool)
            (o.pr_placement ^ " agrees with " ^ first.pr_placement)
            true
            (o.pr_indices = first.pr_indices
            && o.pr_values = first.pr_values))
        rest;
      Alcotest.(check bool)
        "labels recovered" true
        (C4cam.Dse.top1_accuracy first.pr_indices data.labels >= 0.8)

(* ---- dse / profile integration ---------------------------------------- *)

let test_placement_sweep () =
  let data =
    Workloads.Hdc.synthetic ~seed:7 ~dims:256 ~n_classes:128 ~n_queries:4
      ~bits:1 ()
  in
  let ms = C4cam.Dse.placement_sweep ~spec:base32 ~data () in
  Alcotest.(check (list string))
    "sweep covers every executable placement"
    [
      "cam-base 32x32 score=cam select=cam";
      "cam-base 32x32 score=cam select=host";
      "cam-base 32x32 score=xbar select=host";
      "cam-base 32x32 score=host select=host";
    ]
    (List.map (fun (m : C4cam.Dse.measurement) -> m.config) ms);
  List.iter
    (fun (m : C4cam.Dse.measurement) ->
      Alcotest.(check bool)
        (m.config ^ ": positive modeled cost")
        true
        (m.latency > 0. && m.energy > 0.))
    ms

let test_profile_placed_roundtrip () =
  let collector = Instrument.Collect.create () in
  let config =
    C4cam.Driver.Run_config.default
    |> C4cam.Driver.Run_config.with_profile collector
    |> C4cam.Driver.Run_config.with_placement
         (`Fixed [ P.Host; P.Host ])
  in
  let c =
    C4cam.Driver.compile ~spec:base32
      (Workloads.Kernels.hdc_dot ~q:2 ~dims:32 ~classes:4 ~k:1)
  in
  let data =
    Workloads.Hdc.synthetic ~seed:1 ~dims:32 ~n_classes:4 ~n_queries:2
      ~bits:1 ()
  in
  ignore
    (C4cam.Hetero.run_placed ~config c ~queries:data.queries
       ~stored:data.stored);
  let p = Instrument.Collect.profile collector in
  (match p.placed with
  | None -> Alcotest.fail "profile carries no placed section"
  | Some placed ->
      Alcotest.(check string)
        "placement recorded" "score=host select=host" placed.placement;
      Alcotest.(check (list string))
        "per-device breakdown keys" [ "host" ]
        (List.map fst placed.device_latency_s));
  let p' = Instrument.Profile.of_json (Instrument.Profile.to_json p) in
  Alcotest.(check bool) "placed section survives JSON" true
    (p'.placed = p.placed)

let () =
  Alcotest.run "placement"
    [
      ( "model",
        [
          Alcotest.test_case "enumerate dot" `Quick test_enumerate_dot;
          Alcotest.test_case "enumerate recsys" `Quick test_enumerate_recsys;
          Alcotest.test_case "illegal priced" `Quick
            test_illegal_priced_rejected;
          Alcotest.test_case "movement monotonic" `Quick
            test_movement_monotonic;
          Alcotest.test_case "table" `Quick test_table_marks_choice;
        ] );
      ( "price",
        [
          QCheck_alcotest.to_alcotest prop_price_registry;
          QCheck_alcotest.to_alcotest prop_price_shapes;
          Alcotest.test_case "probe shapes" `Quick test_price_probe_shapes;
          QCheck_alcotest.to_alcotest prop_price_crossbar;
          Alcotest.test_case "priced = executed" `Quick
            test_priced_is_executed;
        ] );
      ( "execution",
        [
          QCheck_alcotest.to_alcotest prop_placed_differential;
          Alcotest.test_case "auto executable" `Quick test_auto_is_executable;
          Alcotest.test_case "non-executable pin" `Quick
            test_non_executable_pin_rejected;
          Alcotest.test_case "wrong-length pin" `Quick
            test_wrong_length_pin_rejected;
        ] );
      ( "recsys",
        [
          Alcotest.test_case "mixed beats singles" `Quick
            test_recsys_mixed_beats_singles;
          Alcotest.test_case "assignments agree" `Quick
            test_recsys_all_assignments_agree;
        ] );
      ( "integration",
        [
          Alcotest.test_case "placement sweep" `Quick test_placement_sweep;
          Alcotest.test_case "profile roundtrip" `Quick
            test_profile_placed_roundtrip;
        ] );
    ]
