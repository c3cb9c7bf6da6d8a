type t = {
  users : float array array;
  labels : int array;
  prototypes : float array array;
  items : float array array;
}

let generate ?(seed = 23) ?(noise = 0.1) ~users ~features ~items ~classes () =
  if classes < 1 || users < 1 || features < 1 || items < 1 then
    invalid_arg "Recsys.generate: all dimensions must be positive";
  let rng = Rng.create seed in
  let random_row dims =
    Array.init dims (fun _ -> if Rng.bool rng 0.5 then 1. else 0.)
  in
  let prototypes = Array.init classes (fun _ -> random_row features) in
  let item_matrix = Array.init features (fun _ -> random_row items) in
  let labels = Array.init users (fun _ -> Rng.int rng classes) in
  let user_rows =
    Array.map
      (fun label ->
        let u = Array.copy prototypes.(label) in
        let flips = int_of_float (noise *. float_of_int features) in
        for _ = 1 to flips do
          let d = Rng.int rng features in
          u.(d) <- 1. -. u.(d)
        done;
        u)
      labels
  in
  { users = user_rows; labels; prototypes; items = item_matrix }

(* Exact integer GEMV on the host: 0/1 operands, sums < 2^53, so the
   result is bit-identical however the product is computed — the
   property the placement differential tests rely on. *)
let project t rows =
  let f = Array.length t.items in
  let d = if f = 0 then 0 else Array.length t.items.(0) in
  Array.map
    (fun row ->
      if Array.length row <> f then
        invalid_arg "Recsys.project: row length disagrees with the features";
      let out = Array.make d 0. in
      for l = 0 to f - 1 do
        let x = row.(l) in
        if x <> 0. then
          for j = 0 to d - 1 do
            out.(j) <- out.(j) +. (x *. t.items.(l).(j))
          done
      done;
      out)
    rows
