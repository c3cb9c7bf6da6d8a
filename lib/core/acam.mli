(** The ACAM range-analytics executor: builds a cam-dialect module
    around [cam.write_range] + [`Range] search and runs it through the
    interpreter against the simulator — the device path of
    {!Workloads.Range_filter}.

    Range kernels are not expressible in the TorchScript frontend (no
    tensor op means "interval membership"), so the module is built
    directly at the cam level; from there it flows through the same
    interpreter and energy model as every compiled kernel, and serves
    through the same [Serve.Session] (one with two pinned tables, lo
    and hi). *)

type compiled = {
  ra_spec : Archspec.Spec.t;
  ra_modul : Ir.Func_ir.modul;
  ra_fn : string;
  ra_q : int;  (** queries per execution *)
  ra_rows : int;  (** stored boxes *)
  ra_d : int;  (** dimensions per box *)
}

exception Range_error of string

val fit_spec : ?base:Archspec.Spec.t -> boxes:int -> dims:int -> unit ->
  Archspec.Spec.t
(** A spec whose single subarray holds the box table: [base] (default
    the 32x32 base square) widened to at least [boxes] rows (min 32)
    and [dims] columns. *)

val compile : spec:Archspec.Spec.t -> q:int -> boxes:int -> dims:int ->
  compiled
(** Build the module: allocate the hierarchy, program the box table
    ([cam.write_range]), range-search the query batch, read the
    violation counts and select the best (fewest-violations) box per
    query. @raise Range_error when the table exceeds the spec's
    subarray geometry. *)

type result = {
  values : float array array;  (** [q x 1] best violation counts *)
  indices : int array array;  (** [q x 1] best box rows *)
  matches : int array;
      (** per query: the matched box id ([values = 0]) or [-1] —
          {!Workloads.Range_filter.decode} of the selection *)
  latency : float;  (** seconds *)
  energy : float;  (** joules *)
  power : float;
  stats : Camsim.Stats.t;
  ops_executed : (string * int) list;
}

val run :
  ?config:Driver.Run_config.t -> compiled -> lo:float array array ->
  hi:float array array -> queries:float array array -> result
(** One-shot execution on a fresh simulator, honouring the config's
    tech/trace fields (defects never apply to range writes). *)
