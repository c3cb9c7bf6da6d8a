type shape = {
  queries : int;
  rows : int;
  dims : int;
  k : int;
  seed : int;
}

type pre_stage = {
  pre_label : string;
  pre_latency : float;
  pre_energy : float;
  pre_stats : Camsim.Stats.t;
}

type kernel_instance = {
  ki_source : string;
  ki_stored : float array array;
  ki_queries : float array array;
  ki_labels : int array;
  ki_predict : int array array -> int array;
  ki_pre : pre_stage option;
}

type direct_outcome = {
  do_accuracy : float;
  do_energy : float;
  do_stats : Camsim.Stats.t;
  do_queries : int;
}

type range_instance = {
  ri_lo : float array array;
  ri_hi : float array array;
  ri_queries : float array array;
  ri_expected : int array;
}

type exec =
  | Kernel of (shape -> Archspec.Spec.t -> kernel_instance)
  | Direct of (shape -> Archspec.Spec.t -> direct_outcome)
  | Range of (shape -> range_instance)

type entry = {
  name : string;
  summary : string;
  default_shape : shape;
  fix_spec : shape -> Archspec.Spec.t -> Archspec.Spec.t;
  exec : exec;
}

let accuracy ~expected got =
  if Array.length expected <> Array.length got then
    invalid_arg "Registry.accuracy: length mismatch";
  let agree = ref 0 in
  Array.iteri (fun i e -> if got.(i) = e then incr agree) expected;
  float_of_int !agree /. float_of_int (max 1 (Array.length expected))

let top1 indices = Array.map (fun (row : int array) -> row.(0)) indices
let keep_spec _shape spec = spec

(* ---- hdc: synthetic prototypes through the dot-similarity kernel ------- *)

let hdc_instance (s : shape) (spec : Archspec.Spec.t) =
  let data =
    Hdc.synthetic ~seed:s.seed ~dims:s.dims ~n_classes:s.rows
      ~n_queries:s.queries ~bits:spec.Archspec.Spec.bits ()
  in
  {
    ki_source = Kernels.hdc_dot ~q:s.queries ~dims:s.dims ~classes:s.rows ~k:1;
    ki_stored = data.Hdc.stored;
    ki_queries = data.Hdc.queries;
    ki_labels = data.Hdc.query_labels;
    ki_predict = top1;
    ki_pre = None;
  }

(* ---- knn: batched Euclidean nearest neighbours on the MCAM -------------- *)

let knn_vote (train : Dataset.t) indices =
  Array.map
    (fun (row : int array) ->
      let votes = Array.make train.n_classes 0 in
      Array.iter
        (fun idx -> votes.(train.labels.(idx)) <- votes.(train.labels.(idx)) + 1)
        row;
      let best = ref 0 in
      Array.iteri (fun c v -> if v > votes.(!best) then best := c) votes;
      !best)
    indices

let knn_instance (s : shape) _spec =
  (* oversized so the 0.7 split leaves >= rows train and >= queries
     test samples for any shape; only the samples the instance keeps
     are generated *)
  let per_class = s.rows + s.queries in
  let train_idx, test_idx =
    Dataset.split_indices ~seed:(s.seed + 1) (2 * per_class)
      ~train_fraction:0.7
  in
  let kept =
    Dataset.pneumonia_rows ~seed:s.seed ~n_features:s.dims
      ~samples_per_class:per_class
      (Array.append
         (Array.sub train_idx 0 s.rows)
         (Array.sub test_idx 0 s.queries))
  in
  let train =
    {
      kept with
      Dataset.features = Array.sub kept.features 0 s.rows;
      labels = Array.sub kept.labels 0 s.rows;
    }
  in
  {
    ki_source = Kernels.knn_euclidean ~q:s.queries ~dims:s.dims ~n:s.rows ~k:s.k;
    ki_stored = train.Dataset.features;
    ki_queries = Array.sub kept.Dataset.features s.rows s.queries;
    ki_labels = Array.sub kept.Dataset.labels s.rows s.queries;
    ki_predict = knn_vote train;
    ki_pre = None;
  }

(* ---- recsys: host GEMV projection feeding the similarity search --------- *)

let recsys_instance (s : shape) _spec =
  let data =
    Recsys.generate ~seed:s.seed ~users:s.queries ~features:s.dims
      ~items:s.dims ~classes:s.rows ()
  in
  {
    (* nearest projected prototype by Euclidean distance — the same
       scoring Hetero.run_recsys places across devices *)
    ki_source = Kernels.knn_euclidean ~q:s.queries ~dims:s.dims ~n:s.rows ~k:1;
    ki_stored = Recsys.project data data.Recsys.prototypes;
    ki_queries = Recsys.project data data.Recsys.users;
    ki_labels = data.Recsys.labels;
    ki_predict = top1;
    ki_pre = None;
  }

(* ---- few-shot: episodic CAM memory, driven by the workload itself ------- *)

let few_shot_outcome (s : shape) (spec : Archspec.Spec.t) =
  let emb =
    Few_shot.embedder ~seed:s.seed ~in_dim:s.dims
      ~out_dim:spec.Archspec.Spec.cols ()
  in
  let episode =
    Few_shot.make_episode ~seed:(s.seed + 1) ~n_way:s.rows ~k_shot:s.k
      ~n_queries:s.queries ~dim:s.dims ()
  in
  let preds, stats = Few_shot.classify_cam ~spec emb episode ~k:s.k in
  {
    do_accuracy = Few_shot.episode_accuracy preds episode.Few_shot.query_labels;
    do_energy = Camsim.Stats.total_energy stats;
    do_stats = stats;
    do_queries = Array.length preds;
  }

(* ---- decision-tree: the DT2CAM ternary rule table ----------------------- *)

let decision_tree_outcome (s : shape) (spec : Archspec.Spec.t) =
  let full =
    Dataset.mnist_like ~seed:s.seed ~n_features:s.dims ~n_classes:s.rows
      ~samples_per_class:30 ()
  in
  let train, test = Dataset.split ~seed:(s.seed + 1) full ~train_fraction:0.7 in
  let model = Decision_tree.train ~max_depth:6 ~bins:8 train in
  let rules = Decision_tree.to_rules model in
  let spec =
    {
      spec with
      Archspec.Spec.rows =
        max spec.Archspec.Spec.rows (Array.length rules.Decision_tree.patterns);
      cols = max spec.Archspec.Spec.cols rules.Decision_tree.width;
    }
  in
  let sim = Camsim.Simulator.create spec in
  let bank =
    Camsim.Simulator.alloc_bank sim ~rows:spec.Archspec.Spec.rows
      ~cols:spec.Archspec.Spec.cols
  in
  let mat = Camsim.Simulator.alloc_mat sim bank in
  let arr = Camsim.Simulator.alloc_array sim mat in
  let sub = Camsim.Simulator.alloc_subarray sim arr in
  let q = min s.queries (Dataset.n_samples test) in
  let queries = Array.sub test.Dataset.features 0 q in
  let preds = Decision_tree.classify_cam sim sub rules model queries in
  let stats = Camsim.Simulator.stats sim in
  {
    do_accuracy = accuracy ~expected:(Array.sub test.Dataset.labels 0 q) preds;
    do_energy = Camsim.Stats.total_energy stats;
    do_stats = stats;
    do_queries = q;
  }

(* ---- mlp: CAM-only two-layer inference ---------------------------------- *)

let mlp_instance (s : shape) _spec =
  let cfg =
    (* hidden = features keeps the layer-2 code width equal to
       [shape.dims], which [fix_spec] sizes the subarray columns to *)
    {
      Mlp.default_config with
      features = s.dims;
      classes = s.rows;
      hidden = s.dims;
      seed = s.seed;
    }
  in
  let t = Mlp.train ~config:cfg () in
  let test = Mlp.test_set t in
  let q = min s.queries (Dataset.n_samples test) in
  let xs = Array.sub test.Dataset.features 0 q in
  let dev = Mlp.layer1_device t in
  let codes = Mlp.encode_cam t dev xs in
  {
    ki_source = Mlp.layer2_source t ~q;
    ki_stored = Mlp.prototypes t;
    ki_queries = codes;
    ki_labels = Array.sub test.Dataset.labels 0 q;
    ki_predict = top1;
    ki_pre =
      Some
        {
          pre_label = "mlp layer-1 tcam";
          pre_latency = Mlp.device_latency dev;
          pre_energy = Mlp.device_energy dev;
          pre_stats = Mlp.device_stats dev;
        };
  }

(* ---- range-filter: ACAM box membership ---------------------------------- *)

let range_instance (s : shape) =
  let w =
    Range_filter.generate ~seed:s.seed ~boxes:s.rows ~dims:s.dims
      ~n_queries:s.queries ()
  in
  {
    ri_lo = w.Range_filter.lo;
    ri_hi = w.Range_filter.hi;
    ri_queries = w.Range_filter.queries;
    ri_expected = w.Range_filter.expected;
  }

(* ---- the registry ------------------------------------------------------- *)

let all =
  [
    {
      name = "hdc";
      summary = "HDC dot-similarity classification over synthetic prototypes";
      default_shape = { queries = 16; rows = 10; dims = 1024; k = 1; seed = 11 };
      fix_spec = keep_spec;
      exec = Kernel hdc_instance;
    };
    {
      name = "knn";
      summary = "batched Euclidean k-NN on the multi-bit cell (pneumonia-like)";
      default_shape = { queries = 16; rows = 512; dims = 256; k = 7; seed = 17 };
      fix_spec =
        (fun _ spec -> { spec with Archspec.Spec.cam_kind = Archspec.Spec.Mcam });
      exec = Kernel knn_instance;
    };
    {
      name = "recsys";
      summary = "recommender: host GEMV projection feeding prototype search";
      default_shape = { queries = 16; rows = 8; dims = 128; k = 1; seed = 11 };
      fix_spec =
        (* Euclidean distances need the multi-bit analog cell *)
        (fun _ spec -> { spec with Archspec.Spec.cam_kind = Archspec.Spec.Mcam });
      exec = Kernel recsys_instance;
    };
    {
      name = "few-shot";
      summary = "episodic few-shot memory: binary keys, best-match vote";
      default_shape = { queries = 32; rows = 5; dims = 64; k = 3; seed = 5 };
      fix_spec = keep_spec;
      exec = Direct few_shot_outcome;
    };
    {
      name = "decision-tree";
      summary = "DT2CAM ternary rule table, exact-match classification";
      default_shape = { queries = 32; rows = 4; dims = 12; k = 1; seed = 3 };
      fix_spec = keep_spec;
      exec = Direct decision_tree_outcome;
    };
    {
      name = "mlp";
      summary = "CAM-only MLP: layer-1 rule table, layer-2 prototype search";
      default_shape = { queries = 32; rows = 5; dims = 16; k = 1; seed = 7 };
      fix_spec =
        (* the layer-2 kernel searches hidden-width codes; keep the
           subarray columns no wider so the partitioner tiles evenly *)
        (fun s spec ->
          {
            spec with
            Archspec.Spec.cols = min spec.Archspec.Spec.cols s.dims;
          });
      exec = Kernel mlp_instance;
    };
    {
      name = "range-filter";
      summary = "ACAM range analytics: box membership / anomaly filter";
      default_shape = { queries = 64; rows = 24; dims = 8; k = 1; seed = 1 };
      fix_spec =
        (fun s spec ->
          {
            spec with
            Archspec.Spec.rows = max spec.Archspec.Spec.rows (max 32 s.rows);
            cols = max spec.Archspec.Spec.cols s.dims;
          });
      exec = Range range_instance;
    };
  ]

let names = List.map (fun e -> e.name) all
let find name = List.find_opt (fun e -> e.name = name) all

let find_exn name =
  match find name with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (known: %s)" name
           (String.concat ", " names))
