(** Synthetic datasets standing in for the paper's MNIST (HDC) and
    chest-X-ray Pneumonia (KNN) data. Class structure is controlled so
    the functional pipelines achieve realistic, verifiable accuracy;
    the architectural experiments only depend on the dataset
    dimensions, which follow the paper. *)

type t = {
  features : float array array;  (** [n_samples x n_features] *)
  labels : int array;
  n_classes : int;
}

val n_samples : t -> int
val n_features : t -> int

val mnist_like :
  ?seed:int -> ?noise:float -> n_features:int -> n_classes:int ->
  samples_per_class:int -> unit -> t
(** Digit-like data: each class has a smooth random template in [0,1];
    samples are the template plus bounded noise (default 0.15). *)

val pneumonia_like :
  ?seed:int -> ?separation:float -> n_features:int ->
  samples_per_class:int -> unit -> t
(** Two-class image-feature data (normal vs pneumonia): Gaussian class
    clusters with the given mean separation (default 1.2). Samples are
    numbered class by class: [0 .. samples_per_class - 1] are class 0. *)

val pneumonia_rows :
  ?seed:int -> ?separation:float -> n_features:int ->
  samples_per_class:int -> int array -> t
(** [pneumonia_rows ... idxs] is the samples [idxs] of
    {!pneumonia_like} with the same arguments, in the order given,
    without drawing the others: each sample's random draws are skipped
    to with {!Rng.advance}.
    @raise Invalid_argument when an index is outside
    [[0, 2 * samples_per_class)]. *)

val split_indices :
  ?seed:int -> int -> train_fraction:float -> int array * int array
(** [split_indices n ~train_fraction] is the shuffled (train, test)
    sample numbers of an [n]-sample split: the first
    [floor (n * train_fraction)] of a seeded permutation, then the rest.
    @raise Invalid_argument unless [0 < train_fraction < 1]. *)

val split : ?seed:int -> t -> train_fraction:float -> t * t
(** Shuffled train/test split, stratification-free: the samples of
    {!split_indices}. *)
