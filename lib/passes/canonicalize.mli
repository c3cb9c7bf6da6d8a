(** Canonicalization: dead-code elimination of pure ops and constant
    folding of index arithmetic. *)

val dce : Ir.Pass.t
val fold_constants : Ir.Pass.t

val cse : Ir.Pass.t
(** Common-subexpression elimination: within each block, a pure,
    region-free op whose name, operands and attributes equal an earlier
    op's is removed and its results replaced by the earlier op's. *)

val pass : Ir.Pass.t
(** Folding, CSE, then DCE. *)
