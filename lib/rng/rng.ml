type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* SplitMix64 finalizer (the same mixing as next_int64's output stage):
   used to derive decorrelated child states. *)
let mix64 z =
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
  let seed =
    mix64
      (Int64.add
         (mix64 (Int64.add t.state (Int64.of_int (i + 1))))
         0x9E3779B97F4A7C15L)
  in
  { state = seed }

let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
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

let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_of_float (float t *. float_of_int bound)

let bool t p = float t < p

let gaussian t =
  let u1 = max (float t) 1e-300 in
  let u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
