(* Smoke tests of the pieces behind the CLI that are not covered
   elsewhere: kernel templates and traced compilation. *)

let test_kernel_templates_compile () =
  List.iter
    (fun (name, src, spec) ->
      match C4cam.Driver.compile ~spec src with
      | _ -> ()
      | exception C4cam.Driver.Compile_error e ->
          Alcotest.failf "%s: %s" name e)
    [
      ( "hdc",
        Workloads.Kernels.hdc_dot ~q:2 ~dims:64 ~classes:4 ~k:1,
        Tutil.spec32 );
      ("hdc paper", Workloads.Kernels.hdc_dot_paper, Tutil.spec32);
      ( "knn",
        Workloads.Kernels.knn_euclidean ~q:2 ~dims:32 ~n:16 ~k:2,
        { Tutil.spec32 with cam_kind = Archspec.Spec.Mcam } );
      ( "cosine",
        Workloads.Kernels.cosine_scores ~q:2 ~dims:32 ~n:8,
        Tutil.spec32 );
    ]

let test_compile_traced_entries () =
  let _, entries =
    C4cam.Driver.compile_traced ~spec:Tutil.spec32
      (Workloads.Kernels.hdc_dot ~q:2 ~dims:64 ~classes:4 ~k:1)
  in
  let names = List.map fst entries in
  Alcotest.(check bool) "starts at the frontend" true
    (List.hd names = "frontend");
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [ "torch-to-cim"; "cim-fuse-ops"; "cim-partition"; "cam-map" ];
  (* every snapshot parses back *)
  List.iter
    (fun (name, text) ->
      match Ir.Parser.parse_module text with
      | _ -> ()
      | exception Ir.Parser.Parse_error e ->
          Alcotest.failf "%s snapshot does not parse: %s" name e)
    entries

let test_traced_equals_untraced () =
  (* printed names are local to each function, so the text compares *)
  let src = Workloads.Kernels.hdc_dot ~q:3 ~dims:64 ~classes:4 ~k:1 in
  let a = C4cam.Driver.compile ~spec:Tutil.spec32 src in
  let b, _ = C4cam.Driver.compile_traced ~spec:Tutil.spec32 src in
  Alcotest.(check string) "same cam text"
    (Ir.Printer.module_to_string a.cam_ir)
    (Ir.Printer.module_to_string b.cam_ir)

let test_stage_texts_repeatable () =
  (* the second compile runs after the first has taken value ids *)
  let src = Workloads.Kernels.hdc_dot ~q:3 ~dims:64 ~classes:4 ~k:1 in
  let texts () =
    C4cam.Driver.stage_texts (C4cam.Driver.compile ~spec:Tutil.spec32 src)
  in
  let first = texts () in
  List.iter2
    (fun (stage, t1) (_, t2) ->
      Alcotest.(check string) (stage ^ " prints the same twice") t1 t2)
    first (texts ())

let test_stage_texts_complete () =
  let c =
    C4cam.Driver.compile ~spec:Tutil.spec32
      (Workloads.Kernels.hdc_dot ~q:2 ~dims:64 ~classes:4 ~k:1)
  in
  Alcotest.(check (list string)) "three stages"
    [ "torch"; "cim"; "cam" ]
    (List.map fst (C4cam.Driver.stage_texts c))

let () =
  Alcotest.run "cli"
    [
      ( "driver surface",
        [
          Alcotest.test_case "kernel templates" `Quick
            test_kernel_templates_compile;
          Alcotest.test_case "traced entries" `Quick
            test_compile_traced_entries;
          Alcotest.test_case "traced = untraced" `Quick
            test_traced_equals_untraced;
          Alcotest.test_case "stage texts repeatable" `Quick
            test_stage_texts_repeatable;
          Alcotest.test_case "stage texts" `Quick test_stage_texts_complete;
        ] );
    ]
