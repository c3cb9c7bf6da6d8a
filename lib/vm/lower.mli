(** Lowering from cam-level IR (scf + arith + memref + cam) to the flat
    runtime ISA. The input must be fully lowered — torch/cim ops are
    rejected. *)

exception Lower_error of string

val modul : Ir.Func_ir.modul -> string -> Isa.program
(** Lower one function of a module by name. *)
