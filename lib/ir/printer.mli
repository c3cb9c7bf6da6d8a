(** Textual form of the IR (a generic-form MLIR-like syntax).

    The output of {!module_to_string} round-trips through
    {!Parser.parse_module}. Value names are local to each function:
    [%0, %1, ...] in order of first definition, so the same IR prints
    the same text whatever else the process built before it. *)

val float_to_string : float -> string
(** Print a float so that [float_of_string] recovers it exactly and so
    that it is lexically distinct from an integer. *)

val func_to_string : Func_ir.func -> string
val module_to_string : Func_ir.modul -> string
