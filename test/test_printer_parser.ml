(* Printer/parser round-trip tests, including a property-based random
   module generator. *)

open Ir

let reprint m = Printer.module_to_string (Parser.parse_module (Printer.module_to_string m))

let test_simple_round_trip () =
  let m = Tutil.hdc_torch () in
  let text = Printer.module_to_string m in
  Alcotest.(check string) "fixpoint after one round" text (reprint m)

let test_round_trip_all_stages () =
  let spec = Archspec.Spec.square 16 Archspec.Spec.Density in
  let c =
    C4cam.Driver.compile ~spec (Tutil.hdc_source ~q:3 ~dims:64 ~classes:5 ())
  in
  List.iter
    (fun (stage, text) ->
      let reparsed = Parser.parse_module text in
      Alcotest.(check string)
        (stage ^ " round trips") text
        (Printer.module_to_string reparsed))
    (C4cam.Driver.stage_texts c)

let test_parse_type () =
  Alcotest.(check string)
    "tensor" "tensor<10x8192xf32>"
    (Types.to_string (Parser.parse_type "tensor<10x8192xf32>"));
  Alcotest.(check string)
    "handle" "!cam.bank_id"
    (Types.to_string (Parser.parse_type "!cam.bank_id"));
  Alcotest.(check string) "index" "index" (Types.to_string (Parser.parse_type "index"));
  Alcotest.(check string)
    "memref" "memref<4xf64>"
    (Types.to_string (Parser.parse_type "memref<4xf64>"))

let test_parse_errors () =
  let bad text =
    match Parser.parse_module text with
    | _ -> Alcotest.failf "expected parse error for %S" text
    | exception Parser.Parse_error _ -> ()
  in
  bad "func forward() {}";
  bad "func @f() { %0 = \"a.b\"() : () -> index ";
  bad "func @f() { %0 = \"a.b\"(%9) : (index) -> index }";
  (* use before def *)
  bad "func @f() { %0 = \"a.b\"() : () -> tensor<axbxf32> }";
  bad "func @f() { \"a.b\"() : (index) -> () }";
  (* arity mismatch *)
  bad "func @f(%99999999999999999999: index) {}";
  (* value id past max_int *)
  bad "func @f() { \"a\\9zz\"() : () -> () }";
  (* decimal escape that is not three digits *)
  bad "func @f() { \"a\\999\"() : () -> () }"
(* decimal escape past 255 *)

let test_parse_attrs () =
  let src =
    "func @f() {\n\
    \  %0 = \"a.c\"() {i = -3, f = 1.5, b = true, s = \"x\\\"y\", sym = \
     #best, l = [1, 2, -3], t = tensor<2xf32>} : () -> index\n\
     }"
  in
  let m = Parser.parse_module src in
  let op = List.hd (Func_ir.find_func_exn m "f").fn_body.body in
  Alcotest.(check int) "int attr" (-3) (Attr.as_int (Op.attr_exn op "i"));
  Tutil.check_float "float attr" 1.5 (Attr.as_float (Op.attr_exn op "f"));
  Alcotest.(check bool) "bool attr" true (Attr.as_bool (Op.attr_exn op "b"));
  Alcotest.(check string) "str attr" "x\"y" (Attr.as_str (Op.attr_exn op "s"));
  Alcotest.(check string) "sym attr" "best" (Attr.as_sym (Op.attr_exn op "sym"));
  Alcotest.(check (list int)) "ints attr" [ 1; 2; -3 ]
    (Attr.as_ints (Op.attr_exn op "l"));
  Alcotest.(check string) "type attr" "tensor<2xf32>"
    (Types.to_string (Attr.as_type (Op.attr_exn op "t")))

let test_parse_regions () =
  let src =
    "func @f(%0: index) {\n\
    \  \"scf.for\"(%0, %0, %0) ({\n\
     ^(%1: index):\n\
    \  %2 = \"arith.addi\"(%1, %1) : (index, index) -> index\n\
     }) : (index, index, index) -> ()\n\
     }"
  in
  let m = Parser.parse_module src in
  let loop = List.hd (Func_ir.find_func_exn m "f").fn_body.body in
  Alcotest.(check int) "one region" 1 (List.length loop.Op.regions);
  let blk = Op.entry_block loop in
  Alcotest.(check int) "one block arg" 1 (List.length blk.block_args);
  Alcotest.(check int) "one body op" 1 (List.length blk.body)

let test_comments_ignored () =
  let src =
    "// a comment\nfunc @f() { // trailing\n  \"a.b\"() : () -> ()\n}\n"
  in
  let m = Parser.parse_module src in
  Alcotest.(check int) "one op" 1
    (List.length (Func_ir.find_func_exn m "f").fn_body.body)

let test_float_printing () =
  List.iter
    (fun f ->
      let s = Printer.float_to_string f in
      let back = float_of_string s in
      if Float.is_nan f then
        Alcotest.(check bool) "nan round trips" true (Float.is_nan back)
      else Tutil.check_float ~eps:0. ("float " ^ s) f back)
    [ 0.; 1.5; -2.25; 1e-30; 3.14159265358979312; Float.infinity;
      Float.neg_infinity; Float.nan; 1e300; -0.5e-7 ]

(* ---- property-based round trip over random modules ------------------- *)

let gen_elem = QCheck.Gen.oneofl Types.[ F32; F64; I1; I32; I64 ]

let gen_type =
  QCheck.Gen.(
    oneof
      [
        map (fun e -> Types.Scalar e) gen_elem;
        return Types.Index;
        map2
          (fun dims e -> Types.Tensor (dims, e))
          (list_size (int_range 1 3) (int_range 1 64))
          gen_elem;
        map2
          (fun dims e -> Types.Memref (dims, e))
          (list_size (int_range 1 3) (int_range 1 64))
          gen_elem;
        map
          (fun s -> Types.Handle ("d." ^ s))
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
      ])

let gen_attr =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Attr.Int i) int;
        map (fun f -> Attr.Float f) (float_bound_inclusive 1e6);
        map (fun b -> Attr.Bool b) bool;
        map (fun s -> Attr.Sym s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
        map (fun l -> Attr.Ints l) (list_size (int_range 0 4) int);
        map (fun t -> Attr.Type_attr t) gen_type;
        map (fun s -> Attr.Str s) (string_size (int_range 0 10));
      ])

(* Random straight-line module: a chain of ops each consuming some of
   the previously defined values. *)
let gen_module =
  QCheck.Gen.(
    let* n_args = int_range 0 3 in
    let* arg_types = list_repeat n_args gen_type in
    let* n_ops = int_range 1 10 in
    let* specs =
      list_repeat n_ops
        (triple (int_range 0 2) (int_range 0 2)
           (list_size (int_range 0 2)
              (pair
                 (string_size ~gen:(char_range 'a' 'z') (int_range 1 5))
                 gen_attr)))
    in
    let* result_types = list_repeat (n_ops * 2) gen_type in
    let* picks = list_repeat (n_ops * 2) (int_range 0 1000) in
    return (arg_types, specs, result_types, picks))

let build_module (arg_types, specs, result_types, picks) =
  let args = List.map Value.fresh arg_types in
  let available = ref args in
  let rtypes = ref result_types in
  let picks = ref picks in
  let take_rt () =
    match !rtypes with
    | t :: rest ->
        rtypes := rest;
        t
    | [] -> Types.Index
  in
  let take_pick () =
    match !picks with
    | p :: rest ->
        picks := rest;
        p
    | [] -> 0
  in
  let ops =
    List.mapi
      (fun i (n_operands, n_results, attrs) ->
        let operands =
          if !available = [] then []
          else
            List.init n_operands (fun _ ->
                List.nth !available (take_pick () mod List.length !available))
        in
        let results = List.init n_results (fun _ -> Value.fresh (take_rt ())) in
        available := !available @ results;
        (* dedupe attr keys to keep printing unambiguous *)
        let attrs =
          List.fold_left
            (fun acc (k, v) ->
              if List.mem_assoc k acc then acc else (k, v) :: acc)
            [] attrs
        in
        Op.create ~operands ~results ~attrs
          (Printf.sprintf "test.op%d" i))
      specs
  in
  Func_ir.modul [ Func_ir.func "f" ~args ~ret:[] ops ]

let prop_round_trip =
  QCheck.Test.make ~count:200 ~name:"random module print/parse round trip"
    (QCheck.make gen_module)
    (fun g ->
      let m = build_module g in
      let text = Printer.module_to_string m in
      let m' = Parser.parse_module text in
      String.equal text (Printer.module_to_string m'))

(* Only the declared Parse_error may escape the parser, whatever bytes
   a valid module is mutated into. *)
let prop_mutated_modules_refused_cleanly =
  let spec = Archspec.Spec.square 16 Archspec.Spec.Density in
  let stages =
    C4cam.Driver.stage_texts
      (C4cam.Driver.compile ~spec (Tutil.hdc_source ~q:2 ~dims:64 ~classes:4 ()))
  in
  let attrs =
    "func @f(%0: index) -> index {\n\
    \  %1 = \"a.c\"(%0) {s = \"x\\\"y\\n\\065\", f = -1.5e-3, t = \
     tensor<2x3xf32>, l = [1, -2], sym = #best} : (index) -> index\n\
    \  \"func.return\"(%1) : (index) -> ()\n\
     }\n"
  in
  let seeds = attrs :: List.map snd stages in
  (* every seed is valid before it is mutated *)
  List.iter (fun s -> ignore (Parser.parse_module s)) seeds;
  QCheck.Test.make ~count:1000 ~name:"mutated modules raise only Parse_error"
    (Tutil.mutant seeds)
    (fun src ->
      match Parser.parse_module src with
      | _ -> true
      | exception Parser.Parse_error _ -> true)

let () =
  Alcotest.run "printer_parser"
    [
      ( "round-trip",
        [
          Alcotest.test_case "hdc module" `Quick test_simple_round_trip;
          Alcotest.test_case "all pipeline stages" `Quick
            test_round_trip_all_stages;
          QCheck_alcotest.to_alcotest prop_round_trip;
        ] );
      ( "parser",
        [
          Alcotest.test_case "types" `Quick test_parse_type;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "attributes" `Quick test_parse_attrs;
          Alcotest.test_case "regions" `Quick test_parse_regions;
          Alcotest.test_case "comments" `Quick test_comments_ignored;
          QCheck_alcotest.to_alcotest prop_mutated_modules_refused_cleanly;
        ] );
      ( "printer",
        [ Alcotest.test_case "float formatting" `Quick test_float_printing ] );
    ]
