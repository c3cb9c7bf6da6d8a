(** CAM-only MLP inference ("Full-Stack Optimization for CAM-Only DNN
    Inference"): a small one-hidden-layer network whose both layers run
    as CAM lookups, with no digital multiply anywhere on the inference
    path.

    Layer 1 (features -> hidden sign bits) is mapped DT2CAM-style: each
    hidden neuron's activation bit [w1_j . x + b1_j > 0] is distilled
    into a small CART tree over the quantised input features, and all
    neurons' trees are flattened into one ternary TCAM rule table
    (thermometer-encoded, one row per leaf — {!Decision_tree}'s
    machinery). A single exact-match search evaluates every neuron at
    once: within each neuron's row range exactly one row matches, and
    that row's class bit is the neuron's activation.

    Layer 2 (hidden bits -> class) binarises the output weights to
    sign prototypes and turns the bit vector into a bipolar code, so
    the class scores are plain dot products of +-1 vectors — exactly
    the HDC dot-similarity kernel, compiled through the real frontend
    ([Kernels.hdc_dot]) and servable through [Serve.Session].

    The quantised reference ({!predict_quantized}) computes the same
    two stages in software; the CAM path equals it bit-for-bit
    (tested), and both trail the float model ({!float_accuracy}) only by
    the quantisation loss. *)

type config = {
  features : int;
  classes : int;
  hidden : int;
  samples_per_class : int;  (** per class, before the train/test split *)
  bins : int;  (** feature quantisation levels for the tree mapping *)
  max_depth : int;  (** per-neuron tree depth cap *)
  epochs : int;
  lr : float;
  seed : int;
}

val default_config : config
(** 16 features, 5 classes, 16 hidden units, 40 samples/class, 8 bins,
    depth 5, 60 epochs, lr 0.15, seed 7. *)

type t
(** A trained bundle: float weights, per-neuron trees, the stacked
    rule table, sign prototypes and the train/test datasets. *)

val train : ?config:config -> unit -> t
(** Train the float network (softmax cross-entropy SGD, deterministic
    in [config.seed]) on a {!Dataset.mnist_like} split, then distill
    each hidden neuron into a tree and stack the rule tables. *)

val config : t -> config

val weights : t -> float array array * float array * float array array
(** The trained float network [(w1, b1, w2)]: [w1] is [hidden x
    features], [b1] has [hidden] biases, [w2] is [classes x hidden]. *)

val test_set : t -> Dataset.t
(** Held-out samples (the inference requests). *)

val prototypes : t -> float array array
(** [classes x hidden] sign prototypes of the output weights, +-1. *)

val total_rows : t -> int
(** Rows of the stacked layer-1 rule table. *)

val rule_width : t -> int
(** Cells per rule row: [features x (bins - 1)]. *)

val layer2_source : t -> q:int -> string
(** The layer-2 TorchScript kernel ([Kernels.hdc_dot] over [hidden]
    dims, top-1 largest) for a [q]-query batch. *)

(** {1 References} *)

val float_accuracy : t -> float
(** Test-set accuracy of the float network: tanh hidden layer, argmax
    logits (ties toward the lower class). *)

val predict_quantized : t -> float array -> int
(** The software twin of the CAM path: tree-predicted activation bits,
    bipolar code, argmax of prototype dot products (ties toward the
    lower class — matching the device's top-1 tie-break). *)

val quantized_accuracy : t -> float

val codes_quantized : t -> float array array -> float array array
(** Bipolar layer-1 codes ([q x hidden], +-1) via the trees in
    software — the host oracle for {!encode_cam}. *)

(** {1 The layer-1 CAM device} *)

type device
(** A pinned simulator holding the stacked rule table (written once;
    every {!encode_cam} batch reuses it, so the table's write energy
    amortizes across inferences like a serving session's stored
    rows). *)

val layer1_device : ?tech:Camsim.Tech.t -> t -> device
(** Allocate the hierarchy and program the rule table (one ternary
    write, charged). *)

val encode_cam : t -> device -> float array array -> float array array
(** Thermometer-encode a batch, exact-match search the rule table
    (one search op per batch), and decode each neuron's matching row
    into its activation bit: bipolar codes [q x hidden], equal to
    {!codes_quantized} (tested).
    @raise Failure if some neuron range has no matching row (cannot
    happen for in-range samples). *)

val device_latency : device -> float
(** Cumulative simulated seconds (write + searches so far). *)

val device_energy : device -> float
(** Cumulative simulated joules, from the device's stats ledger. *)

val device_stats : device -> Camsim.Stats.t
