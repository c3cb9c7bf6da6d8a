(* The 64-bit state lives unboxed in 8 bytes, read and written with the
   unaligned 64-bit primitives, so stepping the generator allocates
   nothing: only a draw's boxed result (a float, an int64) does. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 finalizer: next_int64's output stage, also used to derive
   decorrelated child states. *)
let[@inline] mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t i =
  if i < 0 then invalid_arg "Rng.split: index must be non-negative";
  (* Mix the parent state with the child index through two finalizer
     rounds; a function of (state, i) only, so child streams depend on
     the split index, never on which domain asks first. *)
  of_state
    (mix64
       (Int64.add
          (mix64 (Int64.add (get_state t 0) (Int64.of_int (i + 1))))
          gamma))

let[@inline] next_int64 t =
  let s = Int64.add (get_state t 0) gamma in
  set_state t 0 s;
  mix64 s

(* The state only ever grows by [gamma], so k draws add k * gamma. *)
let advance t k =
  if k < 0 then invalid_arg "Rng.advance: count must be non-negative";
  set_state t 0 (Int64.add (get_state t 0) (Int64.mul (Int64.of_int k) gamma))

let[@inline] float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_of_float (float t *. float_of_int bound)

let bool t p = float t < p

let[@inline] gaussian t =
  let u1 = float t in
  let u1 = if u1 >= 1e-300 then u1 else 1e-300 in
  let u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
