type t = { id : int; ty : Types.t }

(* Atomic so that parallel DSE candidates can compile (parse and build
   IR) concurrently without racing on id allocation. *)
let counter = Atomic.make 0

let fresh ty = { id = Atomic.fetch_and_add counter 1; ty }

let with_id id ty =
  (* CAS-max: keep the counter above every explicitly chosen id. *)
  let rec raise_to target =
    let cur = Atomic.get counter in
    if target > cur && not (Atomic.compare_and_set counter cur target) then
      raise_to target
  in
  raise_to (id + 1);
  { id; ty }

let equal a b = a.id = b.id
let name v = "%" ^ string_of_int v.id
