(** The flat runtime ISA — the lowest abstraction level of the flow.

    The paper lowers cam IR "to scf and subsequently to llvm", where cam
    ops become function calls into the CAM simulator. This module plays
    the llvm role: a linear instruction stream with explicit registers,
    labels and conditional branches instead of structured regions.

    Timing frames preserve the structured latency semantics after
    flattening: [Frame_enter mode] opens an accumulation frame,
    [Iter_begin]/[Iter_end] bracket one loop iteration (sequential
    frames add iteration times, parallel frames take their maximum),
    and [Frame_exit] folds the frame's total into the enclosing one. *)

type reg = int
type label = int

type binop = Add | Sub | Mul | Div | Rem

type pred = Lt | Le | Eq | Ne | Gt | Ge

type mode = Seq | Par

type search_params = {
  s_kind : [ `Exact | `Best | `Threshold | `Range ];
  s_metric : [ `Hamming | `Euclidean ];
  s_rows : int;
  s_batch_extra : bool;
  s_threshold : float;
}

type instr =
  | Const of reg * int
  | Binop of binop * reg * reg * reg  (** dst, lhs, rhs *)
  | Cmp of pred * reg * reg * reg
  | Jump of label
  | Branch of reg * label * label  (** cond, then, else *)
  | Alloc_buf of reg * int list
  | Subview of reg * reg * reg list * int list
      (** dst, base, offset regs, static sizes *)
  | Cam_alloc_bank of reg * int * int
  | Cam_alloc_mat of reg * reg
  | Cam_alloc_array of reg * reg
  | Cam_alloc_subarray of reg * reg
  | Cam_write of reg * reg * reg  (** subarray, data buf, row offset *)
  | Cam_search of reg * reg * reg * search_params
  | Cam_read of reg * reg  (** dst buf, subarray *)
  | Cam_merge of reg * reg  (** dst buf += part buf *)
  | Cam_select of reg * reg * reg * int * bool
      (** values dst, indices dst, dist buf, k, largest *)
  | Frame_enter of mode
  | Iter_begin
  | Iter_end
  | Frame_exit
  | Ret of reg list
  | Label of label  (** pseudo-instruction marking a jump target *)

type program = {
  instrs : instr array;
  n_regs : int;
  arg_regs : reg list;
  entry : string;  (** function name this program was lowered from *)
}

val to_string : program -> string
(** Assembly-style listing. *)
