type t = {
  features : float array array;
  labels : int array;
  n_classes : int;
}

let n_samples t = Array.length t.features

let n_features t =
  if Array.length t.features = 0 then 0 else Array.length t.features.(0)

let clamp01 v = if v < 0. then 0. else if v > 1. then 1. else v

let mnist_like ?(seed = 42) ?(noise = 0.15) ~n_features ~n_classes
    ~samples_per_class () =
  let rng = Rng.create seed in
  (* Smooth templates: random walk in [0,1], so neighbouring features
     correlate like neighbouring pixels. *)
  let template _ =
    let v = ref (Rng.float rng) in
    Array.init n_features (fun _ ->
        v := clamp01 (!v +. ((Rng.float rng -. 0.5) *. 0.4));
        !v)
  in
  let templates = Array.init n_classes template in
  let n = n_classes * samples_per_class in
  let features = Array.make n [||] in
  let labels = Array.make n 0 in
  for c = 0 to n_classes - 1 do
    for s = 0 to samples_per_class - 1 do
      let i = (c * samples_per_class) + s in
      labels.(i) <- c;
      features.(i) <-
        Array.map
          (fun v -> clamp01 (v +. ((Rng.float rng -. 0.5) *. 2. *. noise)))
          templates.(c)
    done
  done;
  { features; labels; n_classes }

(* pneumonia draws: both class centres first (n_features gaussians
   each), then every sample in order, class 0's before class 1's, each
   n_features gaussians of two draws. *)
let pneumonia_rows ?(seed = 7) ?(separation = 1.2) ~n_features
    ~samples_per_class idxs =
  let n = 2 * samples_per_class in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Dataset.pneumonia_rows: sample %d not in [0, %d)"
             i n))
    idxs;
  let rng = Rng.create seed in
  let centers =
    Array.init 2 (fun c ->
        Array.init n_features (fun _ ->
            if c = 0 then Rng.gaussian rng *. 0.5
            else
              (Rng.gaussian rng *. 0.5)
              +. (separation /. sqrt (float_of_int n_features) *. 10.)))
  in
  let draws_per_sample = 2 * n_features in
  let first_sample = 2 * draws_per_sample in
  let labels = Array.map (fun i -> i / samples_per_class) idxs in
  let features =
    Array.mapi
      (fun r i ->
        let rng = Rng.create seed in
        Rng.advance rng (first_sample + (i * draws_per_sample));
        let center = centers.(labels.(r)) in
        let row = Array.make n_features 0. in
        for f = 0 to n_features - 1 do
          row.(f) <- center.(f) +. Rng.gaussian rng
        done;
        row)
      idxs
  in
  { features; labels; n_classes = 2 }

let pneumonia_like ?seed ?separation ~n_features ~samples_per_class () =
  pneumonia_rows ?seed ?separation ~n_features ~samples_per_class
    (Array.init (2 * samples_per_class) Fun.id)

let take t idxs =
  {
    features = Array.map (fun i -> t.features.(i)) idxs;
    labels = Array.map (fun i -> t.labels.(i)) idxs;
    n_classes = t.n_classes;
  }

let split_indices ?(seed = 3) n ~train_fraction =
  if train_fraction <= 0. || train_fraction >= 1. then
    invalid_arg "Dataset.split: train_fraction must be in (0, 1)";
  let order = Array.init n (fun i -> i) in
  Rng.shuffle (Rng.create seed) order;
  let n_train = int_of_float (float_of_int n *. train_fraction) in
  (Array.sub order 0 n_train, Array.sub order n_train (n - n_train))

let split ?seed t ~train_fraction =
  let train, test = split_indices ?seed (n_samples t) ~train_fraction in
  (take t train, take t test)
