(** Partial-selection top-k over index ranges.

    Replaces the [Array.sort] of a full index permutation when only the
    first [k] entries are needed: the bounded-buffer path is O(n·k)
    with k-sized memory instead of O(n·log n) with n-sized memory,
    which dominates the per-query cost of [select_best] and the
    interpreter's [torch.topk] lowering when k ≪ n. *)

val select : n:int -> k:int -> cmp:(int -> int -> int) -> int array
(** [select ~n ~k ~cmp] returns the [k] smallest indices of [0, n)
    under [cmp], in ascending [cmp] order — exactly the first [k]
    elements of [Array.sort cmp] applied to [[|0; ...; n-1|]],
    provided [cmp] is a total order (callers break value ties on the
    index itself, which guarantees this).

    @raise Invalid_argument unless [0 <= k <= n]. *)

val rows :
  dist:float array array ->
  k:int ->
  largest:bool ->
  float array array * int array array
(** [rows ~dist ~k ~largest] selects the top [k] of each distance row
    with the simulator's [select_best] ordering — value in the
    requested direction, ties broken on the row index — returning
    [(values, indices)] shaped [q x k]. The host-side half of a
    placement that moves selection off the CAM periphery: results are
    bit-identical to the device path.

    @raise Invalid_argument unless [0 <= k <= length] of each row. *)

val select_row_into :
  float array -> n:int -> k:int -> largest:bool -> values:float array ->
  indices:int array -> unit
(** [select_row_into row ~n ~k ~largest ~values ~indices] writes the
    top [k] of [row.(0)] .. [row.(n-1)] into [values.(0..k-1)] and
    their positions into [indices.(0..k-1)], best first, allocating
    nothing: exactly the first [k] of a sort of [0 .. n-1] by value
    under [compare] (descending when [largest]), ties on the index. So
    NaN ties with NaN and ranks below every other value: first in an
    ascending selection, last in a descending one. This is
    {!rows}'s and the simulator's [select_best] ordering. [values] and
    [indices] need at least [k] slots; [row] at least [n].

    @raise Invalid_argument unless [0 <= k <= n]. *)
