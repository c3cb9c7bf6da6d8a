(** IR traversal helpers. *)

val iter_ops : (Op.t -> unit) -> Func_ir.func -> unit
(** Pre-order traversal over all ops of a function, including nested
    regions. *)

val iter_module : (Op.t -> unit) -> Func_ir.modul -> unit

val collect : (Op.t -> bool) -> Func_ir.func -> Op.t list
(** All ops (nested included) satisfying the predicate, pre-order. *)

val collect_module : (Op.t -> bool) -> Func_ir.modul -> Op.t list

val map_top_ops : (Op.t -> Op.t list) -> Func_ir.func -> Func_ir.func
(** Replace each top-level op of the function body by a list of ops
    (1-to-n rewriting at the top level only). The function is mutated and
    also returned for chaining. *)

val find_def : Func_ir.func -> Value.t -> Op.t option
(** Defining op of an SSA value, searching nested regions too. [None] for
    function/block arguments. *)

val used_values : Op.t -> Value.t list
(** Operands of the op plus of all nested ops, minus values defined
    inside (i.e. the free values of the op). *)
