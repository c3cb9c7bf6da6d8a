type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Sym of string
  | Ints of int list
  | Type_attr of Types.t

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | Sym x, Sym y -> String.equal x y
  | Ints x, Ints y -> x = y
  | Type_attr x, Type_attr y -> Types.equal x y
  | (Int _ | Float _ | Bool _ | Str _ | Sym _ | Ints _ | Type_attr _), _ ->
      false

let to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%h" f
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "%S" s
  | Sym s -> "#" ^ s
  | Ints l -> "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"
  | Type_attr t -> Types.to_string t

let as_int = function Int i -> i | a -> invalid_arg ("as_int: " ^ to_string a)

let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | a -> invalid_arg ("as_float: " ^ to_string a)

let as_bool = function
  | Bool b -> b
  | a -> invalid_arg ("as_bool: " ^ to_string a)

let as_str = function
  | Str s -> s
  | a -> invalid_arg ("as_str: " ^ to_string a)

let as_sym = function
  | Sym s -> s
  | a -> invalid_arg ("as_sym: " ^ to_string a)

let as_ints = function
  | Ints l -> l
  | a -> invalid_arg ("as_ints: " ^ to_string a)

let as_type = function
  | Type_attr t -> t
  | a -> invalid_arg ("as_type: " ^ to_string a)

let find attrs key = List.assoc_opt key attrs
let get attrs key = List.assoc key attrs
