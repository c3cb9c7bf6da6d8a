let rec iter_op f (op : Op.t) =
  f op;
  List.iter
    (fun (r : Op.region) ->
      List.iter
        (fun (b : Op.block) -> List.iter (iter_op f) b.body)
        r.blocks)
    op.regions

let iter_ops f (fn : Func_ir.func) = List.iter (iter_op f) fn.fn_body.body
let iter_module f (m : Func_ir.modul) = List.iter (iter_ops f) m.funcs

let collect pred fn =
  let acc = ref [] in
  iter_ops (fun op -> if pred op then acc := op :: !acc) fn;
  List.rev !acc

let collect_module pred m =
  let acc = ref [] in
  iter_module (fun op -> if pred op then acc := op :: !acc) m;
  List.rev !acc

let map_top_ops f (fn : Func_ir.func) =
  fn.fn_body.body <- List.concat_map f fn.fn_body.body;
  fn

let find_def fn v =
  let found = ref None in
  iter_ops
    (fun op ->
      if !found = None && List.exists (Value.equal v) op.results then
        found := Some op)
    fn;
  !found

let used_values (op : Op.t) =
  let defined = Hashtbl.create 16 in
  let used = ref [] in
  let rec go (o : Op.t) =
    List.iter (fun v -> used := v :: !used) o.operands;
    List.iter (fun (v : Value.t) -> Hashtbl.replace defined v.id ()) o.results;
    List.iter
      (fun (r : Op.region) ->
        List.iter
          (fun (b : Op.block) ->
            List.iter
              (fun (v : Value.t) -> Hashtbl.replace defined v.id ())
              b.block_args;
            List.iter go b.body)
          r.blocks)
      o.regions
  in
  go op;
  (* Free values: used but not defined inside this op. The op's own
     results are defined, so they are excluded as well. *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (v : Value.t) ->
      if Hashtbl.mem defined v.id || Hashtbl.mem seen v.id then false
      else (
        Hashtbl.replace seen v.id ();
        true))
    (List.rev !used)
