type t = { mutable ops_rev : Op.t list }

let create () = { ops_rev = [] }
let add b op = b.ops_rev <- op :: b.ops_rev

let op b ?(operands = []) ?(attrs = []) ?(regions = []) name result_types =
  let results = List.map Value.fresh result_types in
  add b (Op.create ~operands ~results ~attrs ~regions name);
  results

let op1 b ?operands ?attrs ?regions name result_type =
  match op b ?operands ?attrs ?regions name [ result_type ] with
  | [ v ] -> v
  | _ -> assert false

let op0 b ?operands ?attrs ?regions name =
  match op b ?operands ?attrs ?regions name [] with
  | [] -> ()
  | _ -> assert false

let finish b = List.rev b.ops_rev

let build f =
  let b = create () in
  f b;
  finish b
