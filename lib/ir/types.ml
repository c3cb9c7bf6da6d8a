type elem = F32 | F64 | I1 | I32 | I64

type t =
  | Scalar of elem
  | Index
  | Tensor of int list * elem
  | Memref of int list * elem
  | Handle of string
  | None_type

let equal_elem (a : elem) (b : elem) = a = b

let equal (a : t) (b : t) =
  match (a, b) with
  | Scalar x, Scalar y -> equal_elem x y
  | Index, Index -> true
  | Tensor (s1, e1), Tensor (s2, e2) -> s1 = s2 && equal_elem e1 e2
  | Memref (s1, e1), Memref (s2, e2) -> s1 = s2 && equal_elem e1 e2
  | Handle h1, Handle h2 -> String.equal h1 h2
  | None_type, None_type -> true
  | (Scalar _ | Index | Tensor _ | Memref _ | Handle _ | None_type), _ ->
      false

let elem_to_string = function
  | F32 -> "f32"
  | F64 -> "f64"
  | I1 -> "i1"
  | I32 -> "i32"
  | I64 -> "i64"

let elem_of_string = function
  | "f32" -> Some F32
  | "f64" -> Some F64
  | "i1" -> Some I1
  | "i32" -> Some I32
  | "i64" -> Some I64
  | _ -> None

let shape_to_string shape =
  String.concat "" (List.map (fun d -> string_of_int d ^ "x") shape)

let to_string = function
  | Scalar e -> elem_to_string e
  | Index -> "index"
  | Tensor (s, e) ->
      Printf.sprintf "tensor<%s%s>" (shape_to_string s) (elem_to_string e)
  | Memref (s, e) ->
      Printf.sprintf "memref<%s%s>" (shape_to_string s) (elem_to_string e)
  | Handle h -> "!" ^ h
  | None_type -> "none"

let tensor shape e = Tensor (shape, e)
let memref shape e = Memref (shape, e)

let shape = function
  | Tensor (s, _) | Memref (s, _) -> s
  | (Scalar _ | Index | Handle _ | None_type) as t ->
      invalid_arg ("Types.shape: not a shaped type: " ^ to_string t)

let element = function
  | Tensor (_, e) | Memref (_, e) | Scalar e -> e
  | (Index | Handle _ | None_type) as t ->
      invalid_arg ("Types.element: no element type: " ^ to_string t)

let num_elements = function
  | Tensor (s, _) | Memref (s, _) -> List.fold_left ( * ) 1 s
  | Scalar _ | Index -> 1
  | (Handle _ | None_type) as t ->
      invalid_arg ("Types.num_elements: " ^ to_string t)

let is_shaped = function
  | Tensor _ | Memref _ -> true
  | Scalar _ | Index | Handle _ | None_type -> false

let with_shape t shape =
  match t with
  | Tensor (_, e) -> Tensor (shape, e)
  | Memref (_, e) -> Memref (shape, e)
  | (Scalar _ | Index | Handle _ | None_type) as t ->
      invalid_arg ("Types.with_shape: not a shaped type: " ^ to_string t)
