(** Analytical GPU baseline, standing in for the paper's NVIDIA Quadro
    RTX 6000 measurements (Section IV-A1).

    A roofline-style model: each kernel's time is the maximum of its
    compute time (at a kernel-efficiency-derated throughput) and its
    memory time (at the board bandwidth), plus a fixed launch overhead;
    energy is time multiplied by a utilisation-derated board power.
    The efficiency constants are calibrated so the end-to-end HDC
    comparison lands in the paper's reported regime (~48x time, ~46.8x
    energy in favour of the CAM system). *)

type t = {
  name : string;
  fp32_tflops : float;
  mem_bw_gb_s : float;
  board_power_w : float;
  idle_power_w : float;
  kernel_efficiency : float;  (** achieved fraction of peak FLOPS *)
  bw_efficiency : float;
  launch_overhead_s : float;
  utilization : float;  (** fraction of board power drawn when busy *)
}

type cost = { latency : float; energy : float }

val quadro_rtx6000 : t

val matmul : t -> m:int -> k:int -> n:int -> elem_bytes:int -> cost
(** Dense [m,k] x [k,n] product. *)

val topk : t -> rows:int -> cols:int -> k:int -> elem_bytes:int -> cost
(** Row-wise top-k reduction. *)

val hdc_inference :
  t -> queries:int -> dims:int -> classes:int -> cost
(** End-to-end similarity + top-1 for the HDC benchmark (int32
    elements, as the paper's PyTorch implementation). *)

val similarity : t -> queries:int -> stored:int -> dims:int -> cost
(** Distance-matrix stage alone — the GEMV-shaped pass over the stored
    rows plus the elementwise post-op, without the top-k reduction.
    Prices a host-mapped Score stage for the placement cost model. *)

val knn_inference :
  t -> queries:int -> dims:int -> stored:int -> k:int -> cost
