(* TorchScript frontend: lexer, parser, emission and shape inference. *)

open Frontend

let emit src = Emit.compile_string src

let expect_parse_error what src =
  match Tsparser.parse_program src with
  | _ -> Alcotest.failf "%s: expected a parse error" what
  | exception Tsparser.Parse_error _ -> ()

let expect_emit_error what src =
  match emit src with
  | _ -> Alcotest.failf "%s: expected an emit error" what
  | exception Emit.Emit_error _ -> ()

let op_names m =
  let fn = Ir.Func_ir.find_func_exn m "forward" in
  List.map (fun (o : Ir.Op.t) -> o.op_name) fn.fn_body.body

let test_lexer_tokens () =
  let toks = Tslexer.tokenize "def f(x: Tensor[2, 3]) -> Tensor:\n    return x\n" in
  Alcotest.(check bool) "starts with def" true (toks.(0) = Tslexer.DEF);
  Alcotest.(check bool) "ends with eof" true
    (toks.(Array.length toks - 1) = Tslexer.EOF)

let test_lexer_comments_and_numbers () =
  let toks = Tslexer.tokenize "x = 1 # comment\ny = 2.5e1\n" in
  let has t = Array.exists (fun x -> x = t) toks in
  Alcotest.(check bool) "int" true (has (Tslexer.INT 1));
  Alcotest.(check bool) "float" true (has (Tslexer.FLOAT 25.));
  Alcotest.(check bool) "comment dropped" false
    (Array.exists (function Tslexer.NAME "comment" -> true | _ -> false) toks)

let test_hdc_kernel_emission () =
  let m = emit Workloads.Kernels.hdc_dot_paper in
  Alcotest.(check (list string)) "op sequence"
    [ "torch.transpose"; "torch.matmul"; "torch.topk"; "func.return" ]
    (op_names m);
  let fn = Ir.Func_ir.find_func_exn m "forward" in
  Alcotest.(check int) "two params" 2 (List.length fn.fn_args);
  (* Figure 4a returns indices only. *)
  Alcotest.(check (list string)) "returns one i32 tensor"
    [ "tensor<10x1xi32>" ]
    (List.map Ir.Types.to_string fn.fn_ret)

let test_shapes_inferred () =
  let m = emit (Tutil.hdc_source ~q:7 ~dims:96 ~classes:5 ~k:2 ()) in
  let fn = Ir.Func_ir.find_func_exn m "forward" in
  let find name =
    List.find (fun (o : Ir.Op.t) -> o.op_name = name) fn.fn_body.body
  in
  Alcotest.(check string) "transpose shape" "tensor<96x5xf32>"
    (Ir.Types.to_string (Ir.Op.result (find "torch.transpose")).ty);
  Alcotest.(check string) "matmul shape" "tensor<7x5xf32>"
    (Ir.Types.to_string (Ir.Op.result (find "torch.matmul")).ty);
  Alcotest.(check string) "topk values shape" "tensor<7x2xf32>"
    (Ir.Types.to_string (Ir.Op.result_n (find "torch.topk") 0).ty)

let test_knn_kernel_broadcast () =
  let m = emit (Workloads.Kernels.knn_euclidean ~q:3 ~dims:32 ~n:8 ~k:2) in
  let fn = Ir.Func_ir.find_func_exn m "forward" in
  let find name =
    List.find (fun (o : Ir.Op.t) -> o.op_name = name) fn.fn_body.body
  in
  Alcotest.(check string) "broadcast sub shape" "tensor<3x8x32xf32>"
    (Ir.Types.to_string (Ir.Op.result (find "torch.sub")).ty);
  Alcotest.(check string) "norm shape" "tensor<3x8xf32>"
    (Ir.Types.to_string (Ir.Op.result (find "torch.norm")).ty)

let test_cosine_kernel () =
  let m = emit (Workloads.Kernels.cosine_scores ~q:3 ~dims:32 ~n:8) in
  Alcotest.(check (list string)) "cosine op sequence"
    [ "torch.norm"; "torch.norm"; "torch.transpose"; "torch.matmul";
      "torch.div"; "func.return" ]
    (op_names m);
  let fn = Ir.Func_ir.find_func_exn m "forward" in
  let div = List.find (fun (o : Ir.Op.t) -> o.op_name = "torch.div") fn.fn_body.body in
  Alcotest.(check int) "fused ternary div" 3 (List.length div.operands)

let test_self_attribute () =
  let src =
    "def forward(self, input: Tensor[2, 8], weight: Tensor[2, 8]):\n\
    \    others = self.weight.transpose(-2, -1)\n\
    \    m = torch.matmul(input, others)\n\
    \    v, i = torch.topk(m, 1, largest=False)\n\
    \    return i\n"
  in
  let m = emit src in
  Alcotest.(check int) "self param dropped" 2
    (List.length (Ir.Func_ir.find_func_exn m "forward").fn_args)

let test_operators_sugar () =
  let src =
    "def forward(a: Tensor[4, 8], b: Tensor[1, 8]):\n\
    \    d = a - b\n\
    \    n = torch.norm(d, 2, -1)\n\
    \    v, i = torch.topk(n, 1, largest=False)\n\
    \    return v, i\n"
  in
  let m = emit src in
  Alcotest.(check bool) "minus is torch.sub" true
    (List.mem "torch.sub" (op_names m))

let test_parse_errors () =
  expect_parse_error "missing colon" "def f(x: Tensor[1, 2])\n    return x\n";
  expect_parse_error "kwarg before positional"
    "def f(x: Tensor[1, 2]):\n    y = torch.topk(k=1, x)\n    return y\n";
  expect_parse_error "unterminated shape"
    "def f(x: Tensor[1, ):\n    return x\n";
  expect_parse_error "empty body" "def f(x: Tensor[1, 2]):\n"

let test_emit_errors () =
  expect_emit_error "unknown variable"
    "def forward(x: Tensor[2, 2]):\n    return y\n";
  expect_emit_error "unsupported op"
    "def forward(x: Tensor[2, 2]):\n    y = torch.relu(x)\n    return y\n";
  expect_emit_error "missing shape annotation is a parse error, \
                     non-literal k is an emit error"
    "def forward(x: Tensor[2, 2]):\n    v, i = torch.topk(x, x)\n    return v\n";
  expect_emit_error "no return"
    "def forward(x: Tensor[2, 2]):\n    y = x.transpose(0, 1)\n";
  expect_emit_error "unpack mismatch"
    "def forward(x: Tensor[2, 2]):\n    a, b = x.transpose(0, 1)\n    return a\n";
  expect_emit_error "shape mismatch in matmul"
    "def forward(x: Tensor[2, 3], y: Tensor[2, 3]):\n\
    \    z = torch.matmul(x, y)\n    return z\n"

let test_norm_defaults () =
  let src =
    "def forward(a: Tensor[4, 8], b: Tensor[1, 8]):\n\
    \    d = a - b\n\
    \    n = d.norm()\n\
    \    v, i = torch.topk(n, 2, largest=False)\n\
    \    return v, i\n"
  in
  let m = emit src in
  let fn = Ir.Func_ir.find_func_exn m "forward" in
  let norm = List.find (fun (o : Ir.Op.t) -> o.op_name = "torch.norm") fn.fn_body.body in
  Alcotest.(check int) "default p" 2 (Ir.Attr.as_int (Ir.Op.attr_exn norm "p"));
  Alcotest.(check int) "default dim" (-1)
    (Ir.Attr.as_int (Ir.Op.attr_exn norm "dim"))

let test_verifies_strictly () =
  let m = emit (Tutil.hdc_source ()) in
  match Ir.Verifier.verify_module ~strict:true m with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Ir.Verifier.error_to_string e)

(* Only the declared Parse_error may escape the TorchScript parser,
   whatever bytes a registry kernel's source is mutated into. *)
let prop_mutated_sources_refused_cleanly =
  let module Reg = Workloads.Registry in
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  let seeds =
    List.filter_map
      (fun (e : Reg.entry) ->
        match e.exec with
        | Reg.Kernel mk ->
            Some (mk e.default_shape (e.fix_spec e.default_shape spec)).Reg.ki_source
        | Reg.Direct _ | Reg.Range _ -> None)
      Reg.all
  in
  List.iter (fun s -> ignore (Tsparser.parse_program s)) seeds;
  QCheck.Test.make ~count:1000 ~name:"mutated sources raise only Parse_error"
    (Tutil.mutant seeds)
    (fun src ->
      match Tsparser.parse_program src with
      | _ -> true
      | exception Tsparser.Parse_error _ -> true)

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments and numbers" `Quick
            test_lexer_comments_and_numbers;
        ] );
      ( "emission",
        [
          Alcotest.test_case "hdc kernel" `Quick test_hdc_kernel_emission;
          Alcotest.test_case "shape inference" `Quick test_shapes_inferred;
          Alcotest.test_case "knn broadcast" `Quick test_knn_kernel_broadcast;
          Alcotest.test_case "cosine kernel" `Quick test_cosine_kernel;
          Alcotest.test_case "self attribute" `Quick test_self_attribute;
          Alcotest.test_case "operator sugar" `Quick test_operators_sugar;
          Alcotest.test_case "norm defaults" `Quick test_norm_defaults;
          Alcotest.test_case "verifies strictly" `Quick test_verifies_strictly;
        ] );
      ( "errors",
        [
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "emit errors" `Quick test_emit_errors;
          QCheck_alcotest.to_alcotest prop_mutated_sources_refused_cleanly;
        ] );
    ]
