(* Independent oracles.  Each one is a brute-force model written from
   the documented contract of the call it checks, sharing no helpers
   with the program. *)

(* ---- binary rows: a live-row model with exact top-k ------------------ *)

(* A 64-cell binary row as two 32-bit halves. *)
type bits = { lo : int; hi : int }

let bits_of_int64 x =
  {
    lo = Int64.(to_int (logand x 0xFFFFFFFFL));
    hi = Int64.(to_int (shift_right_logical x 32));
  }

let row_of_bits b =
  Array.init 64 (fun j ->
      let w = if j < 32 then b.lo else b.hi in
      if (w lsr (j land 31)) land 1 = 1 then 1. else 0.)

let pop32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

(* Rows addressed by external id, with a live flag: every insert,
   update and delete the store sees is applied here too. *)
module Store = struct
  type t = { lo : int array; hi : int array; live : Bytes.t }

  let create capacity =
    {
      lo = Array.make capacity 0;
      hi = Array.make capacity 0;
      live = Bytes.make capacity '\000';
    }

  let get t id : bits = { lo = t.lo.(id); hi = t.hi.(id) }

  let set t id (b : bits) =
    t.lo.(id) <- b.lo;
    t.hi.(id) <- b.hi;
    Bytes.set t.live id '\001'

  let kill t id = Bytes.set t.live id '\000'

  (* For each query, the [k] live rows nearest to it among ids below
     [upto], ordered by (distance, id): [(distances, ids)] per query.
     One pass over the rows serves every query. *)
  let top t ~k ~upto (qs : bits array) =
    let nq = Array.length qs in
    let dist = Array.make_matrix nq k max_int and ids = Array.make_matrix nq k max_int in
    for id = 0 to upto - 1 do
      if Bytes.get t.live id = '\001' then begin
        let lo = t.lo.(id) and hi = t.hi.(id) in
        for x = 0 to nq - 1 do
          let (qb : bits) = qs.(x) in
          let d = pop32 (lo lxor qb.lo) + pop32 (hi lxor qb.hi) in
          let dist = dist.(x) and ids = ids.(x) in
          (* ids ascend, so a tie never displaces an earlier id *)
          if d < dist.(k - 1) then begin
            let j = ref (k - 1) in
            while !j > 0 && dist.(!j - 1) > d do
              dist.(!j) <- dist.(!j - 1);
              ids.(!j) <- ids.(!j - 1);
              decr j
            done;
            dist.(!j) <- d;
            ids.(!j) <- id
          end
        done
      end
    done;
    (dist, ids)
end

(* ---- boxes: fewest violations, lowest id ----------------------------- *)

module Boxes = struct
  type t = { lo : float array array; hi : float array array }

  let copy lo hi = { lo = Array.map Array.copy lo; hi = Array.map Array.copy hi }

  let set t row lo hi =
    t.lo.(row) <- Array.copy lo;
    t.hi.(row) <- Array.copy hi

  let violations t row x =
    let lo = t.lo.(row) and hi = t.hi.(row) in
    let n = ref 0 in
    Array.iteri (fun j v -> if v < lo.(j) || v > hi.(j) then incr n) x;
    !n

  (* (violations, box id) of the best box; the match is the id when the
     count is zero, -1 otherwise *)
  let best t x =
    let bv = ref max_int and bid = ref (-1) in
    for row = 0 to Array.length t.lo - 1 do
      let v = violations t row x in
      if v < !bv then begin
        bv := v;
        bid := row
      end
    done;
    (!bv, !bid)
end

(* ---- dot-product top-1 ------------------------------------------------ *)

(* Index of the stored row with the largest dot product, lowest index
   on ties. *)
let dot_top1 (stored : float array array) (x : float array) =
  let best = ref (-1) and bd = ref neg_infinity in
  Array.iteri
    (fun i row ->
      let d = ref 0. in
      Array.iteri (fun j v -> d := !d +. (v *. x.(j))) row;
      if !d > !bd then begin
        bd := !d;
        best := i
      end)
    stored;
  !best
