(* Cost-model-driven heterogeneous placement: legality and pricing of
   the candidate enumeration, movement-cost monotonicity, bit-exact
   differential execution of every executable split against the all-CAM
   reference (across jobs values), and the RecSys workload
   where a mixed placement beats every single-backend mapping. *)

module P = Passes.Placement

let base32 = Archspec.Spec.square 32 Archspec.Spec.Base

let dot_stages =
  [
    P.Score { q = 4; n = 16; d = 64; metric = Dialects.Cim.Dot };
    P.Select { q = 4; n = 16; k = 1 };
  ]

let recsys_stages =
  [
    P.Gemv { m = 8; k = 64; n = 64 };
    P.Score { q = 8; n = 8; d = 64; metric = Dialects.Cim.Euclidean };
    P.Select { q = 8; n = 8; k = 1 };
  ]

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
  (* gemv in {xbar, host} x score in {cam, host} x select per the CAM
     rule: 2 * (1 cam->2 + 1 host->1) = 6 *)
  Alcotest.(check int)
    "recsys candidates" 6
    (List.length (P.enumerate recsys_stages));
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
  let models = P.default_models base32 in
  Tutil.check_raises_invalid "illegal assignment" (fun () ->
      P.price models dot_stages [ P.Xbar; P.Cam ])

(* ---- movement-cost monotonicity --------------------------------------- *)

(* Making the link strictly worse (or turning movement on at all) never
   makes any candidate cheaper, and leaves cut-free candidates
   untouched. *)
let test_movement_monotonic () =
  let models =
    P.default_models { base32 with cam_kind = Archspec.Spec.Mcam }
  in
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
  let models = P.default_models base32 in
  let t = P.table ~objective:P.Energy models dot_stages in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "table marks the chosen row" true
    (contains t "<- chosen")

(* ---- differential execution ------------------------------------------ *)

let executable_dot =
  [ (P.Cam, P.Cam); (P.Cam, P.Host); (P.Xbar, P.Host); (P.Host, P.Host) ]

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
            (fun (s, sel) ->
              let config =
                C4cam.Driver.Run_config.(
                  default |> with_placement (`Fixed (s, sel)))
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
        (List.mem
           (match pr.pr_assignment with
           | [ s; sel ] -> (s, sel)
           | _ -> Alcotest.fail "two-stage assignment expected")
           executable_dot))
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
      (`Fixed (P.Cam, P.Host))
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

(* ---- the RecSys mixed-placement win ----------------------------------- *)

let recsys_data =
  lazy
    (Workloads.Recsys.generate ~users:8 ~features:64 ~items:64 ~classes:8 ())

let test_recsys_mixed_beats_singles () =
  let data = Lazy.force recsys_data in
  let stages = C4cam.Hetero.recsys_stages data ~k:1 in
  let config =
    C4cam.Driver.Run_config.default
    |> C4cam.Driver.Run_config.with_placement `Auto
    |> C4cam.Driver.Run_config.with_place_objective P.Energy
  in
  let auto = C4cam.Hetero.run_recsys ~config ~spec:base32 ~data ~k:1 () in
  let singles =
    List.map
      (fun dev ->
        C4cam.Hetero.run_recsys ~spec:base32 ~data ~k:1
          ~assignment:(P.single stages dev) ())
      [ P.Cam; P.Xbar; P.Host ]
  in
  (* the chosen split is genuinely mixed (not any single mapping) ... *)
  Alcotest.(check bool)
    "auto picks a mixed assignment" true
    (List.for_all
       (fun (s : C4cam.Hetero.recsys_outcome) ->
         s.rc_placement <> auto.rc_placement)
       singles);
  (* ... and strictly cheaper than every single-backend mapping *)
  List.iter
    (fun (s : C4cam.Hetero.recsys_outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "mixed (%s) beats %s on energy" auto.rc_placement
           s.rc_placement)
        true
        (auto.rc_energy < s.rc_energy))
    singles;
  (* every executable placement returns identical recommendations *)
  List.iter
    (fun (s : C4cam.Hetero.recsys_outcome) ->
      Alcotest.(check bool)
        (s.rc_placement ^ " matches auto results")
        true
        (s.rc_indices = auto.rc_indices && s.rc_values = auto.rc_values))
    singles

let test_recsys_all_assignments_agree () =
  let data = Lazy.force recsys_data in
  let stages = C4cam.Hetero.recsys_stages data ~k:1 in
  let outcomes =
    P.enumerate stages
    |> List.filter C4cam.Hetero.executable_recsys
    |> List.map (fun assignment ->
           C4cam.Hetero.run_recsys ~spec:base32 ~data ~k:1 ~assignment ())
  in
  match outcomes with
  | [] -> Alcotest.fail "no executable recsys assignments"
  | first :: rest ->
      Alcotest.(check int) "four executable assignments" 4
        (List.length outcomes);
      List.iter
        (fun (o : C4cam.Hetero.recsys_outcome) ->
          Alcotest.(check bool)
            (o.rc_placement ^ " agrees with " ^ first.rc_placement)
            true
            (o.rc_indices = first.rc_indices
            && o.rc_values = first.rc_values))
        rest;
      Alcotest.(check bool)
        "labels recovered" true
        (first.rc_accuracy >= 0.8)

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
         (`Fixed (P.Host, P.Host))
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
      ( "execution",
        [
          QCheck_alcotest.to_alcotest prop_placed_differential;
          Alcotest.test_case "auto executable" `Quick test_auto_is_executable;
          Alcotest.test_case "non-executable pin" `Quick
            test_non_executable_pin_rejected;
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
