type error = { func : string; op : string; message : string }

let error_to_string e =
  Printf.sprintf "verification failed in @%s at %s: %s" e.func e.op e.message

exception Fail of error

let verify_func ?(strict = true) (fn : Func_ir.func) =
  let defined : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let err op message = raise (Fail { func = fn.fn_name; op; message }) in
  (* values are named as the printer numbers them in [fn] *)
  let name v = Printer.namer fn v in
  let define op_name (v : Value.t) =
    if Hashtbl.mem defined v.id then
      err op_name (Printf.sprintf "value %s defined twice" (name v));
    Hashtbl.replace defined v.id ()
  in
  (* Region-local definitions go out of scope when the region ends;
     [scoped] runs [f] and removes everything it defined. *)
  let scoped f =
    let before = Hashtbl.copy defined in
    f ();
    Hashtbl.reset defined;
    Hashtbl.iter (fun k v -> Hashtbl.replace defined k v) before
  in
  let rec check_block op_name (b : Op.block) =
    List.iter (define op_name) b.block_args;
    List.iter check_op b.body
  and check_op (op : Op.t) =
    List.iter
      (fun (v : Value.t) ->
        if not (Hashtbl.mem defined v.id) then
          err op.op_name
            (Printf.sprintf "operand %s used before definition" (name v)))
      op.operands;
    (match Registry.lookup op.op_name with
    | Some info -> (
        match info.verify op with
        | Ok () -> ()
        | Error m -> err op.op_name m)
    | None -> if strict then err op.op_name "op not registered");
    List.iter
      (fun (r : Op.region) ->
        scoped (fun () -> List.iter (check_block op.op_name) r.blocks))
      op.regions;
    (* Results come into scope after the op's regions: region code must
       not refer to the op's own results. *)
    List.iter (define op.op_name) op.results
  in
  try
    List.iter (define "entry") fn.fn_args;
    List.iter check_op fn.fn_body.body;
    Ok ()
  with Fail e -> Error e

let verify_module ?strict (m : Func_ir.modul) =
  let rec go = function
    | [] -> Ok ()
    | f :: rest -> (
        match verify_func ?strict f with
        | Ok () -> go rest
        | Error e -> Error e)
  in
  go m.funcs

let verify_exn ?strict m =
  match verify_module ?strict m with
  | Ok () -> ()
  | Error e -> failwith (error_to_string e)
