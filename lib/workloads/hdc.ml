type config = { dims : int; levels : int; bits : int; seed : int }

let default_config = { dims = 8192; levels = 16; bits = 1; seed = 1 }

type item_memory = {
  base : int array array;  (** [n_features x dims], 0/1 *)
  level : int array array;  (** [levels x dims], 0/1 *)
}

let random_bits rng dims =
  Array.init dims (fun _ -> if Rng.bool rng 0.5 then 1 else 0)

let item_memory config ~n_features =
  let rng = Rng.create config.seed in
  let base = Array.init n_features (fun _ -> random_bits rng config.dims) in
  (* Level hypervectors form a continuum: level 0 is random and each
     subsequent level flips dims/(2*levels) fresh positions, so nearby
     levels stay similar while the extremes are near-orthogonal. *)
  let flips_per_level = config.dims / (2 * config.levels) in
  let current = random_bits rng config.dims in
  let level =
    Array.init config.levels (fun l ->
        if l > 0 then
          for _ = 1 to flips_per_level do
            let d = Rng.int rng config.dims in
            current.(d) <- 1 - current.(d)
          done;
        Array.copy current)
  in
  { base; level }

let quantize_level config v =
  let l = int_of_float (v *. float_of_int config.levels) in
  if l >= config.levels then config.levels - 1 else if l < 0 then 0 else l

let bundle_counts config im features =
  let counts = Array.make config.dims 0 in
  Array.iteri
    (fun i v ->
      let lvl = im.level.(quantize_level config v) in
      let base = im.base.(i) in
      for d = 0 to config.dims - 1 do
        (* binding = XOR of the feature's base HV with its level HV *)
        counts.(d) <- counts.(d) + (base.(d) lxor lvl.(d))
      done)
    features;
  counts

let threshold_counts config ~n_bundled counts =
  let max_val = (1 lsl config.bits) - 1 in
  if max_val = 1 then
    let half = float_of_int n_bundled /. 2. in
    Array.map (fun c -> if float_of_int c > half then 1. else 0.) counts
  else begin
    (* Multi-bit: equal-frequency (quantile) bucketing of the bundle
       counts. Both queries and prototypes quantise adaptively over
       their own count distribution, so vectors with similar count
       rankings land in the same buckets and stay Hamming-close — the
       property the multi-bit CAM mapping relies on. *)
    let n = Array.length counts in
    let levels = max_val + 1 in
    let sorted = Array.copy counts in
    Array.sort compare sorted;
    let thresholds =
      Array.init (levels - 1) (fun i -> sorted.((i + 1) * n / levels))
    in
    Array.map
      (fun c ->
        let rec level i =
          if i >= Array.length thresholds || c < thresholds.(i) then i
          else level (i + 1)
        in
        float_of_int (level 0))
      counts
  end

let encode config im features =
  let counts = bundle_counts config im features in
  threshold_counts config ~n_bundled:(Array.length features) counts

type model = { m_config : config; class_hvs : float array array }

let train config (ds : Dataset.t) =
  let n_features = Dataset.n_features ds in
  let im = item_memory config ~n_features in
  let sums = Array.make_matrix ds.n_classes config.dims 0 in
  let samples = Array.make ds.n_classes 0 in
  Array.iteri
    (fun i features ->
      let c = ds.labels.(i) in
      let counts = bundle_counts config im features in
      samples.(c) <- samples.(c) + 1;
      let s = sums.(c) in
      for d = 0 to config.dims - 1 do
        (* Bundle at sample granularity: accumulate the per-sample
           majority bit so every sample carries equal weight. *)
        s.(d) <-
          s.(d)
          + (if counts.(d) * 2 > n_features then 1 else 0)
      done)
    ds.features;
  let class_hvs =
    Array.mapi
      (fun c s -> threshold_counts config ~n_bundled:samples.(c) s)
      sums
  in
  (im, { m_config = config; class_hvs })

let classify_ref model query =
  let dists = Array.map (Distance.hamming query) model.class_hvs in
  Distance.argmin dists

let accuracy_ref model im (ds : Dataset.t) =
  let correct = ref 0 in
  Array.iteri
    (fun i features ->
      let hv = encode model.m_config im features in
      if classify_ref model hv = ds.labels.(i) then incr correct)
    ds.features;
  float_of_int !correct /. float_of_int (Dataset.n_samples ds)

type synthetic = {
  stored : float array array;
  queries : float array array;
  query_labels : int array;
}

let synthetic ?(seed = 11) ?(noise = 0.15) ?(bipolar = false) ~dims
    ~n_classes ~n_queries ~bits () =
  if bipolar && bits <> 1 then
    invalid_arg "Hdc.synthetic: bipolar vectors are binary";
  let rng = Rng.create seed in
  let max_val = (1 lsl bits) - 1 in
  let random_val () =
    if bipolar then if Rng.bool rng 0.5 then 1. else -1.
    else float_of_int (Rng.int rng (max_val + 1))
  in
  let stored =
    Array.init n_classes (fun _ -> Array.init dims (fun _ -> random_val ()))
  in
  let query_labels = Array.init n_queries (fun _ -> Rng.int rng n_classes) in
  let queries =
    Array.map
      (fun label ->
        let q = Array.copy stored.(label) in
        let flips = int_of_float (noise *. float_of_int dims) in
        for _ = 1 to flips do
          q.(Rng.int rng dims) <- random_val ()
        done;
        q)
      query_labels
  in
  { stored; queries; query_labels }
