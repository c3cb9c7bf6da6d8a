(** A minimal resistive-crossbar accelerator — the sibling CIM device of
    the paper's Figure 3 (the [crossbar] dialect next to [cam]) and the
    fabric targeted by the CINM/OCC line of work the cim abstraction
    comes from.

    A tile stores a [rows x cols] weight block as conductances and
    performs analog matrix-vector products: inputs are driven on the
    rows (DACs), currents summed down the columns, and outputs sampled
    by ADCs. Costs follow that structure: per-input DAC energy, per-cell
    MAC energy, per-output ADC energy, and a fixed per-GEMV cycle time.
    All times in seconds, energies in joules. *)

type spec = {
  tile_rows : int;  (** weight-block rows = input length per tile *)
  tile_cols : int;  (** weight-block cols = outputs per tile *)
  max_tiles : int option;  (** [None] = unlimited *)
}

val default_spec : spec
(** 128x128 tiles, unlimited count. *)

type tech = {
  name : string;
  t_gemv : float;  (** one analog GEMV cycle (DAC-settle + ADC sweep) *)
  t_write_cell : float;
  e_mac : float;  (** per cell per GEMV *)
  e_dac_per_input : float;
  e_adc_per_output : float;
  e_tile_static : float;  (** fixed peripheral cost per GEMV *)
  e_write_cell : float;
}

type stats = {
  mutable x_gemvs : int;
  mutable x_writes : int;
  mutable x_energy : float;
  mutable x_tiles : int;
}

type t
type tile = private int

exception Error of string

val create : ?tech:tech -> spec -> t
(** [tech] defaults to a ReRAM 28 nm calibration in the ISAAC/PUMA
    regime. *)

val stats : t -> stats

type cost = { latency : float; energy : float }

val alloc_tile : t -> tile
(** @raise Error when [max_tiles] is exceeded. *)

val write : t -> tile -> float array array -> cost
(** Program a weight block of at most [tile_rows x tile_cols]. *)

val gemv : t -> tile -> float array array -> float array array * cost
(** [gemv t tile inputs] multiplies each input row (length = stored
    rows) by the stored block: [m x k] inputs against a [k x n] block
    give [m x n] outputs; the cost covers [m] GEMV cycles. *)
