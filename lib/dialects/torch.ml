open Vhelp

let transpose_name = "torch.transpose"
let matmul_name = "torch.matmul"
let mm_name = "torch.mm"
let sub_name = "torch.sub"
let div_name = "torch.div"
let norm_name = "torch.norm"
let topk_name = "torch.topk"
let return_name = "func.return"

let normalize_dim rank d =
  let d' = if d < 0 then rank + d else d in
  if d' < 0 || d' >= rank then
    invalid_arg (Printf.sprintf "dim %d out of range for rank %d" d rank);
  d'

(* Shape inference for the builders below. Negative dims count from the
   end, as in PyTorch; shapes outside the accepted subset raise
   [Invalid_argument]. *)

let transpose_shape shape ~d0 ~d1 =
  let rank = List.length shape in
  let d0 = normalize_dim rank d0 and d1 = normalize_dim rank d1 in
  let arr = Array.of_list shape in
  let tmp = arr.(d0) in
  arr.(d0) <- arr.(d1);
  arr.(d1) <- tmp;
  Array.to_list arr

let matmul_shape a b =
  match (a, b) with
  | [ m; k1 ], [ k2; n ] when k1 = k2 -> [ m; n ]
  | _ ->
      invalid_arg
        (Printf.sprintf "matmul: incompatible shapes [%s] x [%s]"
           (String.concat ";" (List.map string_of_int a))
           (String.concat ";" (List.map string_of_int b)))

let norm_shape shape ~dim ~keepdim =
  let rank = List.length shape in
  let dim = normalize_dim rank dim in
  List.concat
    (List.mapi
       (fun i d ->
         if i = dim then if keepdim then [ 1 ] else [] else [ d ])
       shape)

let topk_shape shape ~k ~dim =
  let rank = List.length shape in
  let dim = normalize_dim rank dim in
  List.mapi (fun i d -> if i = dim then k else d) shape

let broadcast_shape a b =
  match (a, b) with
  | _ when a = b -> a
  | [ q; 1; d1 ], [ _; d2 ] when d1 = d2 ->
      (* batched KNN idiom: [Q,1,D] (-) [N,D] -> [Q,N,D] *)
      [ q; List.hd b; d1 ]
  | [ n; d1 ], [ 1; d2 ] when d1 = d2 -> [ n; d1 ]
  | [ 1; d1 ], [ n; d2 ] when d1 = d2 -> [ n; d1 ]
  | [ q; n ], [ q'; 1 ] when q = q' -> [ q; n ]
  | [ q; n ], [ 1; n' ] when n = n' -> [ q; n ]
  | _ ->
      invalid_arg
        (Printf.sprintf "unsupported broadcast: [%s] vs [%s]"
           (String.concat ";" (List.map string_of_int a))
           (String.concat ";" (List.map string_of_int b)))

let tensor_elem (v : Ir.Value.t) = Ir.Types.element v.ty

let transpose b x ~d0 ~d1 =
  let shape = transpose_shape (Ir.Types.shape x.Ir.Value.ty) ~d0 ~d1 in
  Ir.Builder.op1 b ~operands:[ x ]
    ~attrs:[ ("dims", Ir.Attr.Ints [ d0; d1 ]) ]
    transpose_name
    (Ir.Types.tensor shape (tensor_elem x))

let binary name b x y result_shape =
  Ir.Builder.op1 b ~operands:[ x; y ] name
    (Ir.Types.tensor result_shape (tensor_elem x))

let matmul b x y =
  binary matmul_name b x y
    (matmul_shape (Ir.Types.shape x.Ir.Value.ty) (Ir.Types.shape y.Ir.Value.ty))

let mm b x y =
  binary mm_name b x y
    (matmul_shape (Ir.Types.shape x.Ir.Value.ty) (Ir.Types.shape y.Ir.Value.ty))

let sub b x y =
  binary sub_name b x y
    (broadcast_shape (Ir.Types.shape x.Ir.Value.ty)
       (Ir.Types.shape y.Ir.Value.ty))

let div b x y =
  binary div_name b x y
    (broadcast_shape (Ir.Types.shape x.Ir.Value.ty)
       (Ir.Types.shape y.Ir.Value.ty))

(* The fused ternary division of the paper's cosine pattern: divide the
   [Q,N] score matrix by a per-query norm (Q elements) and a per-stored
   norm (N elements) at once. *)
let div3 b x nq ns =
  Ir.Builder.op1 b ~operands:[ x; nq; ns ] div_name
    (Ir.Types.tensor (Ir.Types.shape x.Ir.Value.ty) (tensor_elem x))

let norm b x ~p ~dim ~keepdim =
  let shape = norm_shape (Ir.Types.shape x.Ir.Value.ty) ~dim ~keepdim in
  Ir.Builder.op1 b ~operands:[ x ]
    ~attrs:
      [ ("p", Ir.Attr.Int p);
        ("dim", Ir.Attr.Int dim);
        ("keepdim", Ir.Attr.Bool keepdim);
      ]
    norm_name
    (Ir.Types.tensor shape (tensor_elem x))

let topk b x ~k ~dim ~largest =
  let shape = topk_shape (Ir.Types.shape x.Ir.Value.ty) ~k ~dim in
  match
    Ir.Builder.op b ~operands:[ x ]
      ~attrs:
        [ ("k", Ir.Attr.Int k);
          ("dim", Ir.Attr.Int dim);
          ("largest", Ir.Attr.Bool largest);
        ]
      topk_name
      [ Ir.Types.tensor shape (tensor_elem x);
        Ir.Types.tensor shape Ir.Types.I32;
      ]
  with
  | [ values; indices ] -> (values, indices)
  | _ -> assert false

let return_ b vs = Ir.Builder.op0 b ~operands:vs return_name

(* Verifiers *)

let verify_unary_tensor op =
  operands op 1 >>> fun () ->
  results op 1 >>> fun () ->
  operand_is op 0 is_tensor "a tensor" >>> fun () ->
  result_is op 0 is_tensor "a tensor"

let verify_binary_tensor op =
  operands op 2 >>> fun () ->
  results op 1 >>> fun () ->
  operand_is op 0 is_tensor "a tensor" >>> fun () ->
  operand_is op 1 is_tensor "a tensor" >>> fun () ->
  result_is op 0 is_tensor "a tensor"

let verify_div op =
  check
    (let n = List.length op.Ir.Op.operands in
     n = 2 || n = 3)
    "div takes two operands, or three in the fused cosine form"
  >>> fun () ->
  results op 1 >>> fun () ->
  operand_is op 0 is_tensor "a tensor" >>> fun () ->
  result_is op 0 is_tensor "a tensor"

let verify_transpose op =
  verify_unary_tensor op >>> fun () ->
  has_attr op "dims" >>> fun () ->
  check
    (List.length (Ir.Attr.as_ints (Ir.Op.attr_exn op "dims")) = 2)
    "dims must have exactly two entries"

let verify_matmul op =
  verify_binary_tensor op >>> fun () ->
  let a = Ir.Types.shape (Ir.Op.operand op 0).ty in
  let b = Ir.Types.shape (Ir.Op.operand op 1).ty in
  match (a, b) with
  | [ _; k1 ], [ k2; _ ] ->
      check (k1 = k2) "matmul: inner dimensions disagree"
  | _ -> Error "matmul: operands must be rank-2 tensors"

let verify_norm op =
  verify_unary_tensor op >>> fun () ->
  has_attr op "p" >>> fun () ->
  has_attr op "dim"

let verify_topk op =
  operands op 1 >>> fun () ->
  results op 2 >>> fun () ->
  has_attr op "k" >>> fun () ->
  operand_is op 0 is_tensor "a tensor" >>> fun () ->
  let k = Ir.Attr.as_int (Ir.Op.attr_exn op "k") in
  check (k >= 1) "topk: k must be positive"

let register () =
  let reg mnemonic summary verify =
    Ir.Registry.register_op ~dialect:"torch" ~mnemonic ~summary ~verify ()
  in
  reg "transpose" "swap two tensor dimensions" verify_transpose;
  reg "matmul" "2-D matrix product" verify_matmul;
  reg "mm" "2-D matrix product (no broadcasting)" verify_matmul;
  reg "sub" "elementwise subtraction (with KNN broadcast)"
    verify_binary_tensor;
  reg "div" "elementwise division (binary or fused cosine)" verify_div;
  reg "norm" "vector norm reduction along a dimension" verify_norm;
  reg "topk" "k smallest/largest entries with indices" verify_topk;
  Ir.Registry.register_op ~dialect:"func" ~mnemonic:"return"
    ~summary:"function terminator" ()
