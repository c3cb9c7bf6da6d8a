type t = {
  lo : float array array;
  hi : float array array;
  queries : float array array;
  expected : int array;
}

let oracle ~lo ~hi point =
  let boxes = Array.length lo in
  let dims = Array.length point in
  let inside b =
    let rec go j =
      j >= dims
      || (point.(j) >= lo.(b).(j) && point.(j) <= hi.(b).(j) && go (j + 1))
    in
    go 0
  in
  let rec first b = if b >= boxes then -1 else if inside b then b else first (b + 1) in
  first 0

let generate ?(seed = 1) ?(anomaly_fraction = 0.3) ~boxes ~dims ~n_queries
    () =
  if boxes < 1 || dims < 1 || n_queries < 1 then
    invalid_arg "Range_filter.generate: all sizes must be >= 1";
  let rng = Rng.create seed in
  let lo = Array.make_matrix boxes dims 0. in
  let hi = Array.make_matrix boxes dims 0. in
  for b = 0 to boxes - 1 do
    for j = 0 to dims - 1 do
      let center = 0.2 +. (0.6 *. Rng.float rng) in
      let half = 0.05 +. (0.15 *. Rng.float rng) in
      lo.(b).(j) <- Float.max 0. (center -. half);
      hi.(b).(j) <- Float.min 1. (center +. half)
    done
  done;
  let queries =
    Array.init n_queries (fun _ ->
        if Rng.bool rng anomaly_fraction then
          Array.init dims (fun _ -> Rng.float rng)
        else begin
          let b = Rng.int rng boxes in
          Array.init dims (fun j ->
              lo.(b).(j)
              +. (Rng.float rng *. (hi.(b).(j) -. lo.(b).(j))))
        end)
  in
  let expected = Array.map (oracle ~lo ~hi) queries in
  { lo; hi; queries; expected }

let decode ~values ~indices =
  Array.mapi
    (fun i (row : float array) ->
      if Array.length row > 0 && row.(0) = 0. then indices.(i).(0) else -1)
    values

let accuracy ~expected predicted =
  if Array.length expected = 0 then 1.
  else begin
    let correct = ref 0 in
    Array.iteri
      (fun i e -> if predicted.(i) = e then incr correct)
      expected;
    float_of_int !correct /. float_of_int (Array.length expected)
  end
