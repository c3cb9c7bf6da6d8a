type tree =
  | Leaf of int
  | Node of { feature : int; threshold : int; left : tree; right : tree }

type model = {
  tree : tree;
  bins : int;
  mins : float array;
  maxs : float array;
  n_classes : int;
}

(* ---- quantisation ------------------------------------------------------ *)

let quantize_value ~bins ~lo ~hi v =
  if hi <= lo then 0
  else
    let b = int_of_float ((v -. lo) /. (hi -. lo) *. float_of_int bins) in
    if b < 0 then 0 else if b >= bins then bins - 1 else b

let quantize model sample =
  Array.mapi
    (fun f v ->
      quantize_value ~bins:model.bins ~lo:model.mins.(f) ~hi:model.maxs.(f)
        v)
    sample

(* ---- CART training ------------------------------------------------------ *)

let gini counts total =
  if total = 0 then 0.
  else
    1.
    -. Array.fold_left
         (fun acc c ->
           let p = float_of_int c /. float_of_int total in
           acc +. (p *. p))
         0. counts

let majority counts =
  let best = ref 0 in
  Array.iteri (fun c v -> if v > counts.(!best) then best := c) counts;
  !best

let train ?(max_depth = 6) ?(min_samples = 4) ?(bins = 16)
    (ds : Dataset.t) =
  let n = Dataset.n_samples ds in
  if n = 0 then invalid_arg "Decision_tree.train: empty dataset";
  let n_features = Dataset.n_features ds in
  let nc = ds.n_classes in
  let mins = Array.make n_features Float.infinity in
  let maxs = Array.make n_features Float.neg_infinity in
  Array.iter
    (fun row ->
      Array.iteri
        (fun f v ->
          if v < mins.(f) then mins.(f) <- v;
          if v > maxs.(f) then maxs.(f) <- v)
        row)
    ds.features;
  (* feature-major bins: binned.(f).(i) *)
  let binned =
    Array.init n_features (fun f ->
        Array.map
          (fun row -> quantize_value ~bins ~lo:mins.(f) ~hi:maxs.(f) row.(f))
          ds.features)
  in
  let count_classes idxs =
    let counts = Array.make nc 0 in
    List.iter (fun i -> counts.(ds.labels.(i)) <- counts.(ds.labels.(i)) + 1) idxs;
    counts
  in
  (* one (bin x class) histogram per feature per node: the class counts
     left of threshold t are its prefix sum over bins 0..t *)
  let hist = Array.make (bins * nc) 0 in
  let lc = Array.make nc 0 and rc = Array.make nc 0 in
  let rec grow idxs depth =
    let counts = count_classes idxs in
    let total = List.length idxs in
    let pure = Array.exists (fun c -> c = total) counts in
    if depth >= max_depth || total < min_samples || pure then
      Leaf (majority counts)
    else begin
      (* best (feature, threshold) by Gini gain *)
      let best = ref None in
      let parent_gini = gini counts total in
      for f = 0 to n_features - 1 do
        let bf = binned.(f) in
        Array.fill hist 0 (bins * nc) 0;
        List.iter
          (fun i ->
            let k = (bf.(i) * nc) + ds.labels.(i) in
            hist.(k) <- hist.(k) + 1)
          idxs;
        Array.fill lc 0 nc 0;
        let left = ref 0 in
        for t = 0 to bins - 2 do
          for c = 0 to nc - 1 do
            lc.(c) <- lc.(c) + hist.((t * nc) + c);
            rc.(c) <- counts.(c) - lc.(c);
            left := !left + hist.((t * nc) + c)
          done;
          let ln = !left in
          let rn = total - ln in
          if ln > 0 && rn > 0 then begin
            let w =
              (float_of_int ln *. gini lc ln
              +. float_of_int rn *. gini rc rn)
              /. float_of_int total
            in
            let gain = parent_gini -. w in
            match !best with
            | Some (g, _, _) when g >= gain -> ()
            | _ -> if gain > 1e-9 then best := Some (gain, f, t)
          end
        done
      done;
      match !best with
      | None -> Leaf (majority counts)
      | Some (_, f, t) ->
          let left_idx = List.filter (fun i -> binned.(f).(i) <= t) idxs in
          let right_idx = List.filter (fun i -> binned.(f).(i) > t) idxs in
          Node
            {
              feature = f;
              threshold = t;
              left = grow left_idx (depth + 1);
              right = grow right_idx (depth + 1);
            }
    end
  in
  let tree = grow (List.init n (fun i -> i)) 0 in
  { tree; bins; mins; maxs; n_classes = ds.n_classes }

let predict model sample =
  let binned = quantize model sample in
  let rec go = function
    | Leaf c -> c
    | Node { feature; threshold; left; right } ->
        if binned.(feature) <= threshold then go left else go right
  in
  go model.tree

let accuracy model (ds : Dataset.t) =
  let correct = ref 0 in
  Array.iteri
    (fun i row -> if predict model row = ds.labels.(i) then incr correct)
    ds.features;
  float_of_int !correct /. float_of_int (Dataset.n_samples ds)

let rec depth = function
  | Leaf _ -> 0
  | Node { left; right; _ } -> 1 + max (depth left) (depth right)

let rec n_leaves = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> n_leaves left + n_leaves right

(* ---- TCAM mapping -------------------------------------------------------- *)

type rules = {
  patterns : float array array;
  care : bool array array;
  classes : int array;
  width : int;
}

(* Thermometer bit j of feature f (j in 0..bins-2) says "bin(f) > j";
   it lives at cell f*(bins-1) + j. The condition bin <= t pins bit t to
   0; bin > t pins it to 1. *)
let to_rules model =
  let bits_per_feature = model.bins - 1 in
  let n_features = Array.length model.mins in
  let width = n_features * bits_per_feature in
  let rows = ref [] in
  let rec walk tree (constraints : (int * float) list) =
    match tree with
    | Leaf c ->
        let pattern = Array.make width 0. in
        let care = Array.make width false in
        List.iter
          (fun (cell, v) ->
            pattern.(cell) <- v;
            care.(cell) <- true)
          constraints;
        rows := (pattern, care, c) :: !rows
    | Node { feature; threshold; left; right } ->
        let cell = (feature * bits_per_feature) + threshold in
        walk left ((cell, 0.) :: constraints);
        walk right ((cell, 1.) :: constraints)
  in
  walk model.tree [];
  let rows = Array.of_list (List.rev !rows) in
  {
    patterns = Array.map (fun (p, _, _) -> p) rows;
    care = Array.map (fun (_, c, _) -> c) rows;
    classes = Array.map (fun (_, _, c) -> c) rows;
    width;
  }

let encode_query model sample =
  let bits_per_feature = model.bins - 1 in
  let binned = quantize model sample in
  let out = Array.make (Array.length sample * bits_per_feature) 0. in
  Array.iteri
    (fun f b ->
      for j = 0 to bits_per_feature - 1 do
        out.((f * bits_per_feature) + j) <- (if b > j then 1. else 0.)
      done)
    binned;
  out

let classify_cam sim sub rules model queries =
  let n_rules = Array.length rules.patterns in
  ignore
    (Camsim.Simulator.write sim sub ~row_offset:0 ~care:rules.care
       rules.patterns);
  let encoded = Array.map (encode_query model) queries in
  ignore
    (Camsim.Simulator.search sim sub ~queries:encoded ~row_offset:0
       ~rows:n_rules ~kind:`Exact ~metric:`Hamming ());
  let matches = Camsim.Simulator.read sim sub in
  Array.mapi
    (fun qi row ->
      let rec first i =
        if i >= Array.length row then
          failwith
            (Printf.sprintf "query %d matches no decision-tree rule" qi)
        else if row.(i) = 0. then rules.classes.(i)
        else first (i + 1)
      in
      first 0)
    matches
