(** Textual form of the IR (a generic-form MLIR-like syntax).

    The output of {!module_to_string} round-trips through
    {!Parser.parse_module}. Value names are local to each function:
    [%0, %1, ...] in order of first definition, so the same IR prints
    the same text whatever else the process built before it. *)

val float_to_string : float -> string
(** Print a float so that [float_of_string] recovers it exactly and so
    that it is lexically distinct from an integer. *)

val namer : Func_ir.func -> Value.t -> string
(** [namer f] names values the way {!func_to_string} prints them in
    [f] ([%0, %1, ...]), so a diagnostic about [f] can name a value
    the reader finds in its printed text. Apply it to [f] once and
    reuse the result: each application numbers the whole function. It
    walks every block, so it also names values in functions the
    printer refuses (multi-block regions). *)

val func_to_string : Func_ir.func -> string
val module_to_string : Func_ir.modul -> string
