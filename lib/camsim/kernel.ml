type cls = Binary | Nibble | Generic

(* Packed rows live in one contiguous [int array] per subarray so the
   inner loops touch only immediate values — an OCaml native int is
   unboxed, so reads, XORs and popcounts allocate nothing (Int64
   intermediates and Bigarray int64 reads each box on every operation
   without flambda). Each logical 64-cell word is a PAIR of int words
   carrying 32 payload bits each: word [2w] holds cells [64w, 64w+31],
   word [2w+1] the next 32 (for nibble rows, 16 nibbles per logical
   word split 8 + 8). Threshold kernels step in logical-word pairs, so
   their early-exit decisions — and therefore the [n_kernel_early_exit]
   counter, which CI gates exactly — land on 64-cell boundaries. *)

type flat = int array

let fbwords_for cols = 2 * ((cols + 63) / 64)
let fnwords_for cols = 2 * ((cols + 15) / 16)

(* Both packers read cell [j] of the incoming row at [data.(src + j*cs)],
   so a row array ([~src:0 ~cs:1]) and a strided window over a flat
   backing store pack through the same loop. *)
let pack_binary_at ~cols data ~src ~cs ~width (dst : flat) ~off =
  Array.fill dst off (fbwords_for cols) 0;
  width = cols
  &&
  let rec go j =
    j = cols
    ||
    let v = data.(src + (j * cs)) in
    if v = 0. then go (j + 1)
    else if v = 1. then begin
      let w = off + (j lsr 5) in
      dst.(w) <- dst.(w) lor (1 lsl (j land 31));
      go (j + 1)
    end
    else false
  in
  go 0

let pack_nibble_at ~cols data ~src ~cs ~width (dst : flat) ~off =
  Array.fill dst off (fnwords_for cols) 0;
  width = cols
  &&
  (* packable = an integer in [0, 16), tested inline: without flambda a
     helper call would box its float argument on every cell of the hot
     pack loop ([int_of_float] is an intrinsic) *)
  let rec go j =
    j = cols
    ||
    let v = data.(src + (j * cs)) in
    v >= 0. && v < 16.
    &&
    let n = int_of_float v in
    float_of_int n = v
    && begin
         let w = off + (j lsr 3) in
         dst.(w) <- dst.(w) lor (n lsl ((j land 7) * 4));
         go (j + 1)
       end
  in
  go 0

(* Popcount of one logical 64-cell word, given as its two 32-bit
   halves: classic SWAR on native ints, folded once per word. Each half
   is reduced to 4-bit partial counts (at most 4 per nibble); the two
   halves are added (at most 8 per nibble, so no carry crosses a
   nibble); one masked byte fold (at most 16 per byte) and one multiply
   sum the word (at most 64, so no carry crosses a byte). Unlike C's
   uint32 arithmetic, OCaml keeps the multiply's high bits, so the
   byte-sum at bits 24..31 must be masked out explicitly. No branch: a
   zero word costs what any other word costs. *)
let[@inline] pop_word x0 x1 =
  let x0 = x0 - ((x0 lsr 1) land 0x55555555) in
  let x0 = (x0 land 0x33333333) + ((x0 lsr 2) land 0x33333333) in
  let x1 = x1 - ((x1 lsr 1) land 0x55555555) in
  let x1 = (x1 land 0x33333333) + ((x1 lsr 2) land 0x33333333) in
  let x = x0 + x1 in
  let x = (x land 0x0F0F0F0F) + ((x lsr 4) land 0x0F0F0F0F) in
  ((x * 0x01010101) lsr 24) land 0xFF

let hamming_binary_flat (q : flat) ~qoff (rows : flat) ~roff ~iwords =
  let d = ref 0 in
  for w = 0 to (iwords lsr 1) - 1 do
    let i = 2 * w in
    d :=
      !d
      + pop_word
          (Array.unsafe_get q (qoff + i) lxor Array.unsafe_get rows (roff + i))
          (Array.unsafe_get q (qoff + i + 1)
          lxor Array.unsafe_get rows (roff + i + 1))
  done;
  !d

(* Number of non-zero nibbles per byte, for mismatch counting. *)
let nonzero_nibbles =
  Array.init 256 (fun b ->
      (if b land 0x0F <> 0 then 1 else 0) + if b land 0xF0 <> 0 then 1 else 0)

let mismatch_nibbles32 x =
  Array.unsafe_get nonzero_nibbles (x land 0xFF)
  + Array.unsafe_get nonzero_nibbles ((x lsr 8) land 0xFF)
  + Array.unsafe_get nonzero_nibbles ((x lsr 16) land 0xFF)
  + Array.unsafe_get nonzero_nibbles ((x lsr 24) land 0xFF)

let hamming_nibble_flat (q : flat) ~qoff (rows : flat) ~roff ~iwords =
  let d = ref 0 in
  for w = 0 to iwords - 1 do
    let x =
      Array.unsafe_get q (qoff + w) lxor Array.unsafe_get rows (roff + w)
    in
    if x <> 0 then d := !d + mismatch_nibbles32 x
  done;
  !d

(* Threshold results are encoded in an int instead of a tuple so a
   threshold sweep over a row window allocates nothing: bit 0 = the row
   matches, bit 1 = counting stopped early with logical words unread. *)
let th_match = 1
let th_early = 2

let hamming_binary_flat_threshold (q : flat) ~qoff (rows : flat) ~roff
    ~iwords ~threshold =
  let lwords = iwords lsr 1 in
  let rec go w d =
    if float_of_int d > threshold then if w < lwords then th_early else 0
    else if w = lwords then th_match
    else
      let i = 2 * w in
      let x0 =
        Array.unsafe_get q (qoff + i) lxor Array.unsafe_get rows (roff + i)
      and x1 =
        Array.unsafe_get q (qoff + i + 1)
        lxor Array.unsafe_get rows (roff + i + 1)
      in
      go (w + 1) (d + pop_word x0 x1)
  in
  go 0 0

let hamming_nibble_flat_threshold (q : flat) ~qoff (rows : flat) ~roff
    ~iwords ~threshold =
  let lwords = iwords lsr 1 in
  let rec go w d =
    if float_of_int d > threshold then if w < lwords then th_early else 0
    else if w = lwords then th_match
    else
      let i = 2 * w in
      let x0 =
        Array.unsafe_get q (qoff + i) lxor Array.unsafe_get rows (roff + i)
      and x1 =
        Array.unsafe_get q (qoff + i + 1)
        lxor Array.unsafe_get rows (roff + i + 1)
      in
      go (w + 1) (d + mismatch_nibbles32 x0 + mismatch_nibbles32 x1)
  in
  go 0 0
