(* The public entry point of the interpreter: resolve the function,
   check its arity, and run it on the closure-compiled engine
   (Compile). *)

type outcome = Ops.outcome = {
  results : Rtval.t list;
  latency : float;
  ops_executed : (string * int) list;
}

exception Runtime_error = Ops.Runtime_error

let run ?sim ?xsim ?pool (m : Ir.Func_ir.modul) fn_name args =
  let fn =
    match Ir.Func_ir.find_func m fn_name with
    | Some f -> f
    | None -> Ops.fail "no function @%s in the module" fn_name
  in
  if List.length fn.fn_args <> List.length args then
    Ops.fail "@%s expects %d arguments, got %d" fn_name
      (List.length fn.fn_args) (List.length args);
  Compile.run_fn ?sim ?xsim ?pool fn args
