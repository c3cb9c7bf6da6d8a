(* Smoke tests of the pieces behind the CLI that are not covered
   elsewhere: kernel templates, traced compilation and the query input
   of [c4cam serve]. *)

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

(* [c4cam serve --input FILE] on a 1-query, 32-dim, 4-class hdc session:
   the exit status and the per-batch result lines. *)
let serve_input text =
  let input = Filename.temp_file "c4cam_input" ".txt"
  and output = Filename.temp_file "c4cam_output" ".txt" in
  Out_channel.with_open_bin input (fun oc -> output_string oc text);
  let status =
    Sys.command
      (Filename.quote_command "../bin/c4cam_cli.exe" ~stdout:output
         ~stderr:output
         [ "serve"; "-q"; "1"; "-d"; "32"; "-c"; "4"; "--input"; input ])
  in
  let batches =
    In_channel.with_open_bin output In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"batch")
  in
  Sys.remove input;
  Sys.remove output;
  (status, batches)

let line sep fields = String.concat sep fields ^ "\n"

let test_serve_input_wire_format () =
  let rows =
    List.init 2 (fun r -> List.init 32 (fun c -> ((r * 7) + c) mod 3 / 2))
  in
  let text sep =
    String.concat ""
      (List.map (fun r -> line sep (List.map string_of_int r)) rows)
  in
  let status, by_space = serve_input (text " ") in
  Alcotest.(check int) "space-separated rows are served" 0 status;
  Alcotest.(check int) "one line per batch" 2 (List.length by_space);
  Alcotest.(check (pair int (list string)))
    "tab-separated rows are served alike" (0, by_space)
    (serve_input (text "\t"));
  List.iter
    (fun field ->
      let status, _ =
        serve_input (line " " (List.init 31 (fun _ -> "0") @ [ field ]))
      in
      if status = 0 then
        Alcotest.failf "field %S was accepted; the TCP codec refuses it"
          field)
    [ "1_0"; "0x1p0"; "nan" ]

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
      ( "serve input",
        [
          Alcotest.test_case "the TCP wire format" `Quick
            test_serve_input_wire_format;
        ] );
    ]
