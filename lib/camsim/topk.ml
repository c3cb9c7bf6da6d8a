(* Bounded-buffer partial selection.

   The buffer holds the best-so-far k indices sorted by [cmp]; each
   remaining candidate either loses to the current worst (one
   comparison) or replaces it and sifts into place (at most k moves).
   For k within a factor of n a full sort is both simpler and faster,
   so we switch over at 4k >= n. Equivalence with the sort prefix
   requires [cmp] to be a total order — with ties, which of the equal
   elements survives would otherwise depend on the insertion path. *)

let full_sort n k cmp =
  let order = Array.init n (fun i -> i) in
  Array.sort cmp order;
  Array.sub order 0 k

let bounded n k cmp =
  let buf = Array.make k 0 in
  let len = ref 0 in
  for i = 0 to n - 1 do
    if !len < k then begin
      (* insertion sort into the not-yet-full buffer *)
      let j = ref !len in
      while !j > 0 && cmp i buf.(!j - 1) < 0 do
        buf.(!j) <- buf.(!j - 1);
        decr j
      done;
      buf.(!j) <- i;
      incr len
    end
    else if cmp i buf.(k - 1) < 0 then begin
      let j = ref (k - 1) in
      while !j > 0 && cmp i buf.(!j - 1) < 0 do
        buf.(!j) <- buf.(!j - 1);
        decr j
      done;
      buf.(!j) <- i
    end
  done;
  buf

let select ~n ~k ~cmp =
  if k < 0 || k > n then
    invalid_arg (Printf.sprintf "Topk.select: k=%d out of [0, %d]" k n);
  if k = 0 then [||]
  else if 4 * k >= n then full_sort n k cmp
  else bounded n k cmp

(* [compare]'s order on floats, inlined: NaN equals NaN and sorts
   below every other value. *)
let[@inline] lt (a : float) (b : float) = a < b || (a <> a && b = b)

(* The simulator's hot path: no comparison closure and no order buffer.
   Candidates arrive in ascending index order, so one only displaces a
   kept entry with a strictly better value, and an equal value keeps
   the lower index first, as the index tie-break does. *)
let select_row_into row ~n ~k ~largest ~values ~indices =
  if k < 0 || k > n then
    invalid_arg
      (Printf.sprintf "Topk.select_row_into: k=%d out of [0, %d]" k n);
  if k = 1 then begin
    let best = ref 0 and bv = ref (Array.unsafe_get row 0) in
    for i = 1 to n - 1 do
      let v = Array.unsafe_get row i in
      if if largest then lt !bv v else lt v !bv then begin
        best := i;
        bv := v
      end
    done;
    Array.unsafe_set values 0 !bv;
    Array.unsafe_set indices 0 !best
  end
  else if k > 1 then begin
    let len = ref 0 in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get row i in
      if
        !len < k
        ||
        let w = Array.unsafe_get values (k - 1) in
        if largest then lt w v else lt v w
      then begin
        (* sift [v] up from the first free slot, or from the last one
           when the buffer is full (its occupant falls off) *)
        let j = ref (if !len < k then !len else k - 1) in
        while
          !j > 0
          &&
          let w = Array.unsafe_get values (!j - 1) in
          if largest then lt w v else lt v w
        do
          Array.unsafe_set values !j (Array.unsafe_get values (!j - 1));
          Array.unsafe_set indices !j (Array.unsafe_get indices (!j - 1));
          decr j
        done;
        Array.unsafe_set values !j v;
        Array.unsafe_set indices !j i;
        if !len < k then incr len
      end
    done
  end

(* Host-side replica of the simulator's select_best ordering: the
   same selection, into fresh rows. Sharing it is what lets the
   placement runner promise byte-identical results when the final
   selection moves from the CAM periphery to the host. *)
let rows ~dist ~k ~largest =
  let values = Array.map (fun _ -> Array.make k 0.) dist in
  let indices = Array.map (fun _ -> Array.make k 0) dist in
  Array.iteri
    (fun qi row ->
      select_row_into row ~n:(Array.length row) ~k ~largest
        ~values:values.(qi) ~indices:indices.(qi))
    dist;
  (values, indices)
