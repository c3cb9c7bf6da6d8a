let float_to_string f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let attr_to_string = function
  | Attr.Int i -> string_of_int i
  | Attr.Float f -> float_to_string f
  | Attr.Bool b -> string_of_bool b
  | Attr.Str s -> Printf.sprintf "%S" s
  | Attr.Sym s -> "#" ^ s
  | Attr.Ints l -> "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"
  | Attr.Type_attr t -> Types.to_string t

let attrs_to_string attrs =
  if attrs = [] then ""
  else
    " {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> k ^ " = " ^ attr_to_string v) attrs)
    ^ "}"

(* Printed names are local to a function: values are numbered %0, %1,
   ... in one walk of the function before it is printed, so the text
   does not depend on the process-wide id counter. The walk meets the
   function's arguments first, then per op its results, its regions (a
   block's arguments before its body) and last its operands, which in
   valid IR is definition order. Names key on the value id, so ids
   shared by several definitions keep sharing one name. *)
let numbering (f : Func_ir.func) =
  let names = Hashtbl.create 64 in
  let see (v : Value.t) =
    if not (Hashtbl.mem names v.id) then
      Hashtbl.add names v.id (Hashtbl.length names)
  in
  let rec op (o : Op.t) =
    List.iter see o.results;
    List.iter (fun (r : Op.region) -> List.iter block r.blocks) o.regions;
    List.iter see o.operands
  and block (b : Op.block) =
    List.iter see b.block_args;
    List.iter op b.body
  in
  List.iter see f.fn_args;
  List.iter op f.fn_body.body;
  names

(* a value the function never mentions is numbered after all of its own *)
let name names (v : Value.t) =
  let n =
    match Hashtbl.find_opt names v.id with
    | Some n -> n
    | None ->
        let n = Hashtbl.length names in
        Hashtbl.add names v.id n;
        n
  in
  "%" ^ string_of_int n

let namer f = name (numbering f)

let values_to_string names vs = String.concat ", " (List.map (name names) vs)

let type_list_to_string = function
  | [] -> "()"
  | [ t ] -> Types.to_string t
  | ts -> "(" ^ String.concat ", " (List.map Types.to_string ts) ^ ")"

let pad n = String.make n ' '

let rec op_to_string names ~indent (op : Op.t) =
  let ind = pad indent in
  let results =
    match op.results with [] -> "" | vs -> values_to_string names vs ^ " = "
  in
  let operand_types =
    "("
    ^ String.concat ", "
        (List.map (fun (v : Value.t) -> Types.to_string v.ty) op.operands)
    ^ ")"
  in
  let result_types =
    type_list_to_string (List.map (fun (v : Value.t) -> v.ty) op.results)
  in
  let regions =
    if op.regions = [] then ""
    else
      " ("
      ^ String.concat ", "
          (List.map (region_to_string names ~indent:(indent + 2)) op.regions)
      ^ ")"
  in
  Printf.sprintf "%s%s\"%s\"(%s)%s%s : %s -> %s" ind results op.op_name
    (values_to_string names op.operands)
    (attrs_to_string op.attrs)
    regions operand_types result_types

and region_to_string names ~indent (r : Op.region) =
  match r.blocks with
  | [ b ] -> block_to_string names ~indent b
  | _ -> invalid_arg "Printer: only single-block regions are printable"

and block_to_string names ~indent (b : Op.block) =
  let header =
    if b.block_args = [] then ""
    else
      pad indent ^ "^("
      ^ String.concat ", "
          (List.map
             (fun (v : Value.t) ->
               name names v ^ ": " ^ Types.to_string v.ty)
             b.block_args)
      ^ "):\n"
  in
  let body =
    String.concat "\n" (List.map (op_to_string names ~indent) b.body)
  in
  "{\n" ^ header ^ body
  ^ (if b.body = [] then "" else "\n")
  ^ pad (indent - 2)
  ^ "}"

let func_to_string (f : Func_ir.func) =
  let names = numbering f in
  let args =
    String.concat ", "
      (List.map
         (fun (v : Value.t) -> name names v ^ ": " ^ Types.to_string v.ty)
         f.fn_args)
  in
  let ret =
    match f.fn_ret with
    | [] -> ""
    | ts -> " -> " ^ type_list_to_string ts
  in
  Printf.sprintf "func @%s(%s)%s {\n%s\n}" f.fn_name args ret
    (String.concat "\n"
       (List.map (op_to_string names ~indent:2) f.fn_body.body))

let module_to_string (m : Func_ir.modul) =
  String.concat "\n\n" (List.map func_to_string m.funcs) ^ "\n"
