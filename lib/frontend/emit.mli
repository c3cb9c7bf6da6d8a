(** Lowering from the TorchScript AST to Torch-dialect IR, with shape
    inference. This is the C4CAM front end proper (Section III-C),
    including the [norm]/[topk] extension. *)

exception Emit_error of string

val compile_string : string -> Ir.Func_ir.modul
(** Parse and emit in one step (registers the dialects first). The
    emitted module verifies strictly against the registered torch
    dialect.
    @raise Tsparser.Parse_error | Emit_error on unsupported constructs,
    unknown variables, or shape mismatches. *)
