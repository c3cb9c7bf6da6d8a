exception Emit_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Emit_error s)) fmt

type env = (string, Ir.Value.t) Hashtbl.t

let lookup env name =
  match Hashtbl.find_opt env name with
  | Some v -> v
  | None -> fail "unknown variable %s" name

(* Extract a literal int argument (op parameters like k and dims must be
   compile-time constants for shape inference). *)
let as_int name = function
  | Ast.Int_lit i -> i
  | e -> fail "%s must be an integer literal, got %s" name (Ast.expr_to_string e)

let as_bool name = function
  | Ast.Bool_lit b -> b
  | e -> fail "%s must be True or False, got %s" name (Ast.expr_to_string e)

let kwarg kwargs key = List.assoc_opt key kwargs

let mnemonic_of_path path =
  (* torch.matmul, torch.ops.aten.topk, ... -> matmul, topk *)
  match List.rev (String.split_on_char '.' path) with
  | m :: _ -> m
  | [] -> fail "empty call path"

type emitted = Single of Ir.Value.t | Pair of Ir.Value.t * Ir.Value.t

let rec emit_expr b env (e : Ast.expr) : emitted =
  match e with
  | Ast.Var v -> Single (lookup env v)
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ ->
      fail "literal %s cannot be used as a tensor" (Ast.expr_to_string e)
  | Ast.Binop (Ast.Bsub, x, y) ->
      Single (Dialects.Torch.sub b (emit_tensor b env x) (emit_tensor b env y))
  | Ast.Binop (Ast.Bdiv, x, y) ->
      Single (Dialects.Torch.div b (emit_tensor b env x) (emit_tensor b env y))
  | Ast.Call (path, args, kwargs) ->
      emit_call b env (mnemonic_of_path path) args kwargs
  | Ast.Method (recv, m, args, kwargs) ->
      emit_call b env m (recv :: args) kwargs

and emit_tensor b env e =
  match emit_expr b env e with
  | Single v -> v
  | Pair _ ->
      fail "%s produces two values where one tensor is expected"
        (Ast.expr_to_string e)

and emit_call b env mnemonic args kwargs : emitted =
  let tensor_arg n i =
    match List.nth_opt args i with
    | Some e -> emit_tensor b env e
    | None -> fail "%s: missing argument %d" n i
  in
  match mnemonic with
  | "transpose" -> (
      match args with
      | [ x; d0; d1 ] ->
          Single
            (Dialects.Torch.transpose b (emit_tensor b env x)
               ~d0:(as_int "transpose dim" d0)
               ~d1:(as_int "transpose dim" d1))
      | _ -> fail "transpose expects (tensor, dim0, dim1)")
  | "matmul" -> Single (Dialects.Torch.matmul b (tensor_arg "matmul" 0) (tensor_arg "matmul" 1))
  | "mm" -> Single (Dialects.Torch.mm b (tensor_arg "mm" 0) (tensor_arg "mm" 1))
  | "sub" -> Single (Dialects.Torch.sub b (tensor_arg "sub" 0) (tensor_arg "sub" 1))
  | "div" ->
      if List.length args = 3 then
        Single
          (Dialects.Torch.div3 b (tensor_arg "div" 0) (tensor_arg "div" 1)
             (tensor_arg "div" 2))
      else
        Single
          (Dialects.Torch.div b (tensor_arg "div" 0) (tensor_arg "div" 1))
  | "norm" ->
      let x = tensor_arg "norm" 0 in
      let p =
        match (List.nth_opt args 1, kwarg kwargs "p") with
        | Some e, _ | None, Some e -> as_int "norm p" e
        | None, None -> 2
      in
      let dim =
        match (List.nth_opt args 2, kwarg kwargs "dim") with
        | Some e, _ | None, Some e -> as_int "norm dim" e
        | None, None -> -1
      in
      let keepdim =
        match kwarg kwargs "keepdim" with
        | Some e -> as_bool "norm keepdim" e
        | None -> false
      in
      Single (Dialects.Torch.norm b x ~p ~dim ~keepdim)
  | "topk" ->
      let x = tensor_arg "topk" 0 in
      let k =
        match (List.nth_opt args 1, kwarg kwargs "k") with
        | Some e, _ | None, Some e -> as_int "topk k" e
        | None, None -> fail "topk needs k"
      in
      let dim =
        match (List.nth_opt args 2, kwarg kwargs "dim") with
        | Some e, _ | None, Some e -> as_int "topk dim" e
        | None, None -> -1
      in
      let largest =
        match (List.nth_opt args 3, kwarg kwargs "largest") with
        | Some e, _ | None, Some e -> as_bool "topk largest" e
        | None, None -> true
      in
      let values, indices = Dialects.Torch.topk b x ~k ~dim ~largest in
      Pair (values, indices)
  | m -> fail "unsupported operation: %s" m

let emit_stmt b env (s : Ast.stmt) : Ir.Value.t list option =
  match s with
  | Ast.Assign (targets, e) -> (
      match (targets, emit_expr b env e) with
      | [ t ], Single v ->
          Hashtbl.replace env t v;
          None
      | [ tv; ti ], Pair (v, i) ->
          Hashtbl.replace env tv v;
          Hashtbl.replace env ti i;
          None
      | ts, Single _ ->
          fail "cannot unpack a single value into %d targets"
            (List.length ts)
      | ts, Pair _ ->
          fail "cannot unpack two values into %d targets" (List.length ts))
  | Ast.Return es ->
      let vs =
        List.concat_map
          (fun e ->
            match emit_expr b env e with
            | Single v -> [ v ]
            | Pair (v, i) -> [ v; i ])
          es
      in
      Some vs

let emit_func (f : Ast.func) : Ir.Func_ir.func =
  let env : env = Hashtbl.create 16 in
  let args =
    List.map
      (fun (name, shape) ->
        if List.exists (fun d -> d <= 0) shape then
          fail "parameter %s: dimensions must be positive" name;
        let v = Ir.Value.fresh (Ir.Types.tensor shape Ir.Types.F32) in
        Hashtbl.replace env name v;
        v)
      f.Ast.f_params
  in
  let b = Ir.Builder.create () in
  let returned = ref None in
  List.iter
    (fun s ->
      if !returned <> None then fail "statements after return";
      (* Shape inference failures in the op builders surface as
         Invalid_argument; report them as front-end errors. *)
      match emit_stmt b env s with
      | Some vs -> returned := Some vs
      | None -> ()
      | exception Invalid_argument msg ->
          fail "in '%s': %s" (Ast.stmt_to_string s) msg)
    f.f_body;
  let ret_values =
    match !returned with
    | Some vs -> vs
    | None -> fail "function %s does not return" f.f_name
  in
  Dialects.Torch.return_ b ret_values;
  Ir.Func_ir.func f.f_name ~args
    ~ret:(List.map (fun (v : Ir.Value.t) -> v.ty) ret_values)
    (Ir.Builder.finish b)

let compile_string src =
  Dialects.Register_all.register_all ();
  let m =
    Ir.Func_ir.modul (List.map emit_func (Tsparser.parse_program src))
  in
  (match Ir.Verifier.verify_module ~strict:true m with
  | Ok () -> ()
  | Error e -> fail "%s" (Ir.Verifier.error_to_string e));
  m
