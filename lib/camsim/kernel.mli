(** Bit-packed Hamming distance kernels shared by the subarray model
    and the host-side software scorers (see docs/KERNELS.md).

    Rows and queries are classified into three tiers:

    - {b binary} — every cell in [{0, 1}]: 32 cells per int word,
      distance via XOR + SWAR popcount;
    - {b nibble} — every cell an integer in [[0, 16)]: 8 cells per int
      word, distance via XOR + non-zero-nibble counting;
    - {b generic} — don't-cares, ranges, or arbitrary floats: the
      scalar per-cell loop (owned by the caller, not this module).

    All kernels are exact: a packed distance equals the scalar
    mismatch count bit-for-bit, so callers may dispatch freely without
    changing results. *)

type cls = Binary | Nibble | Generic
(** Kernel tier of a stored row, ordered fastest first. *)

(** {2 Packed storage}

    Packed rows are [int array] words, so a simulator can keep them in
    one preallocated contiguous store per subarray and query arena. An
    OCaml native int is immediate, so — unlike [int64 array] elements
    or Bigarray int64 reads, which box on every access without flambda
    — the inner loops allocate nothing. Each logical 64-cell word is a
    pair of int words with 32 payload bits each; the threshold variants
    make their early-exit decisions on logical-word boundaries (the
    [n_kernel_early_exit] counter is gated exactly in CI). *)

type flat = int array

val fbwords_for : int -> int
(** Int words per [cols]-cell binary row: two per 64 cells. *)

val fnwords_for : int -> int
(** Int words per [cols]-cell nibble row: two per 16 cells. *)

val pack_binary_at :
  cols:int -> float array -> src:int -> cs:int -> width:int -> flat ->
  off:int -> bool
(** [pack_binary_at ~cols data ~src ~cs ~width dst ~off] packs a binary
    row of [width] cells, cell [j] read at [data.(src + j*cs)] (a row
    array is [~src:0 ~cs:1]), into [fbwords_for cols] words at [off]
    (the window is zeroed first). [false] unless [width = cols] and
    every value is 0. or 1. — the window contents are then unspecified
    and the caller must not mark the row packed. *)

val pack_nibble_at :
  cols:int -> float array -> src:int -> cs:int -> width:int -> flat ->
  off:int -> bool
(** Same for the nibble tier: integers in [[0, 16)], 8 per word. *)

val pop_word : int -> int -> int
(** [pop_word x0 x1]: the number of set bits in one logical 64-cell
    word given as its two 32-bit halves (each in [[0, 2^32)]). One
    SWAR fold and one multiply, no branch; marked for inlining, so a
    caller's row loop pays no call per word. *)

val hamming_binary_flat :
  flat -> qoff:int -> flat -> roff:int -> iwords:int -> int
(** Binary Hamming distance over [iwords] (even) int words: one
    {!pop_word} per logical word. *)

val hamming_nibble_flat :
  flat -> qoff:int -> flat -> roff:int -> iwords:int -> int

val th_match : int
(** Bit set in a flat threshold result when the row matches. *)

val th_early : int
(** Bit set when counting stopped with logical words unread. *)

val hamming_binary_flat_threshold :
  flat -> qoff:int -> flat -> roff:int -> iwords:int -> threshold:float ->
  int

val hamming_nibble_flat_threshold :
  flat -> qoff:int -> flat -> roff:int -> iwords:int -> threshold:float ->
  int
