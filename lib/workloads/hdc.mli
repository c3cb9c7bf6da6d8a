(** Hyperdimensional computing (HDC) pipeline: record-based encoding
    (feature item memory bound to quantised level hypervectors, majority
    bundling), class-prototype training, and software reference
    classification. Binary (1-bit) and multi-bit prototypes are
    supported, matching the paper's two HDC implementations.

    Hypervectors are [float array]s holding small non-negative integers
    (0/1 when binary) so they can be written to the CAM simulator
    directly. *)

type config = {
  dims : int;  (** hypervector dimensionality (paper: 8192) *)
  levels : int;  (** quantisation levels of feature values *)
  bits : int;  (** bits per prototype element: 1 = binary *)
  seed : int;
}

val default_config : config
(** 8192 dims, 16 levels, binary, seed 1. *)

type item_memory

val item_memory : config -> n_features:int -> item_memory
(** Random base hypervector per feature plus a flip-continuum of level
    hypervectors. *)

val encode : config -> item_memory -> float array -> float array
(** Encode a feature vector (values in [0,1]) into a hypervector with
    elements in [0, 2^bits). *)

type model = {
  m_config : config;
  class_hvs : float array array;  (** [n_classes x dims] *)
}

val train : config -> Dataset.t -> item_memory * model
(** Bundle the encodings of each class's training samples into
    class-prototype hypervectors. *)

val accuracy_ref : model -> item_memory -> Dataset.t -> float
(** Software reference: the fraction of samples whose Hamming-nearest
    prototype is their label. *)

(** {1 Synthetic prototypes} — architectural experiments only need
    hypervectors of the right geometry; this generates them directly. *)

type synthetic = {
  stored : float array array;  (** [n_classes x dims] prototypes *)
  queries : float array array;  (** [n_queries x dims] *)
  query_labels : int array;
}

val synthetic :
  ?seed:int -> ?noise:float -> ?bipolar:bool -> dims:int -> n_classes:int ->
  n_queries:int -> bits:int -> unit -> synthetic
(** Random prototypes; each query is a prototype with a [noise] fraction
    of dimensions re-randomised (default 0.15). With [bipolar] (binary
    only) elements are -1/+1 instead of 0/1 — on bipolar vectors the
    dot-to-Hamming mapping used by the CAM lowering is exact
    ([dot = dims - 2*hamming]), making CAM and software rankings agree
    for every rank, not just well-separated top ones. *)
