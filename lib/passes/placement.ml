(* Cost-model-driven heterogeneous placement.

   A compiled kernel is abstracted into a short pipeline of stages —
   an optional GEMV-shaped prelude, a similarity (distance) stage, and
   a top-k selection — and each stage can run on one of three fabrics:
   the CAM fabric (lib/camsim), the resistive crossbar (lib/xbar), or
   the host (priced by the lib/gpu_model roofline). This module
   enumerates the legal device assignments, prices every candidate
   plus explicit data-movement costs at the cut points, and picks the
   winner under a configurable objective. CAM and crossbar prices come
   from the caller (Hetero reads them off the simulators' ledgers);
   execution of the chosen split lives in Hetero too. *)

type device = Cam | Xbar | Host

let device_name = function Cam -> "cam" | Xbar -> "xbar" | Host -> "host"

type objective = Latency | Energy | Edp

let objective_name = function
  | Latency -> "latency"
  | Energy -> "energy"
  | Edp -> "edp"

let objective_of_string = function
  | "latency" -> Ok Latency
  | "energy" -> Ok Energy
  | "edp" -> Ok Edp
  | s -> Error ("unknown objective: " ^ s)

(* The stage vocabulary mirrors what the cim pipeline can actually
   produce: matmul preludes stay GEMV-shaped, fused similarity ops
   carry (q, n, d, metric), and selection is separable because the
   simulator's select_best runs on the merged distance buffer. *)
type stage =
  | Gemv of { m : int; k : int; n : int }
  | Score of { q : int; n : int; d : int; metric : Dialects.Cim.metric }
  | Select of { q : int; n : int; k : int }

type assignment = device list

type link = { bw : float; e_per_byte : float; t_fixed : float }

type cost = { latency : float; energy : float }

let zero = { latency = 0.; energy = 0. }
let add a b = { latency = a.latency +. b.latency; energy = a.energy +. b.energy }

type models = {
  device_cost : device -> stage list -> cost;
  gpu : Gpu_model.t;
  link : link;
}

(* PCIe-class interconnect between any two distinct fabrics. *)
let default_models device_cost =
  {
    device_cost;
    gpu = Gpu_model.quadro_rtx6000;
    link = { bw = 16e9; e_per_byte = 10e-12; t_fixed = 1e-6 };
  }

type priced = {
  p_assignment : assignment;
  p_segments : (stage list * device * cost) list;
  p_movement : cost;
  p_moved_bytes : int;
  p_total : cost;
}

(* ---------- legality ---------- *)

(* Per-stage legality; the rules that tie a Select to its Score are
   positional and checked in [legal]. *)
let stage_devices stage =
  match stage with
  | Gemv _ -> [ Xbar; Host ]
  | Score { metric; _ } ->
      if metric = Dialects.Cim.Dot then [ Cam; Xbar; Host ]
      else [ Cam; Host ]
  | Select _ -> [ Cam; Host ]

(* Selection stays on the CAM periphery only when the distances were
   produced there, and a CAM hands raw scores to the host only through
   a scores-form kernel, which exists for dot and cosine. *)
let follows prev stage d =
  match (prev, stage, d) with
  | Some (_, Cam), Select _, Cam -> true
  | _, Select _, Cam -> false
  | Some (Score { metric; _ }, Cam), Select _, Host -> (
      match metric with Dot | Cosine -> true | Euclidean | Hamming -> false)
  | _ -> true

let legal stages assignment =
  List.length stages = List.length assignment
  && List.for_all2 (fun s d -> List.mem d (stage_devices s)) stages assignment
  && fst
       (List.fold_left2
          (fun (ok, prev) stage d ->
            (ok && follows prev stage d, Some (stage, d)))
          (true, None) stages assignment)

let enumerate stages =
  let rec go = function
    | [] -> [ [] ]
    | stage :: rest ->
        let tails = go rest in
        List.concat_map
          (fun d -> List.map (fun t -> d :: t) tails)
          (stage_devices stage)
  in
  List.filter (legal stages) (go stages)

(* The conventional single-backend mapping: the device everywhere it
   is legal, host for the rest. *)
let single stages device =
  let rec go prev = function
    | [] -> []
    | stage :: rest ->
        let d =
          if List.mem device (stage_devices stage) && follows prev stage device
          then device
          else Host
        in
        d :: go (Some (stage, d)) rest
  in
  go None stages

(* ---------- pricing ---------- *)

(* Maximal runs of consecutive stages on one device, in order. *)
let segments stages assignment =
  List.fold_right2
    (fun s d acc ->
      match acc with
      | (ss, d') :: rest when d' = d -> (s :: ss, d) :: rest
      | _ -> ([ s ], d) :: acc)
    stages assignment []

let host_cost m stage =
  let c =
    match stage with
    | Gemv { m = rows; k; n } ->
        Gpu_model.matmul m.gpu ~m:rows ~k ~n ~elem_bytes:4
    | Score { q; n; d; _ } ->
        Gpu_model.similarity m.gpu ~queries:q ~stored:n ~dims:d
    | Select { q; n; k } ->
        Gpu_model.topk m.gpu ~rows:q ~cols:n ~k ~elem_bytes:4
  in
  { latency = c.latency; energy = c.energy }

let segment_cost m (stages, device) =
  match device with
  | Host -> List.fold_left (fun acc s -> add acc (host_cost m s)) zero stages
  | Cam | Xbar -> m.device_cost device stages

(* Bytes crossing a cut = the producing stage's output (f32). *)
let stage_out_bytes = function
  | Gemv { m; n; _ } -> 4 * m * n
  | Score { q; n; _ } -> 4 * q * n
  | Select { q; k; _ } -> 2 * 4 * q * k

let rec last = function [ s ] -> s | _ :: rest -> last rest | [] -> assert false

let price m stages assignment =
  if not (legal stages assignment) then
    invalid_arg "Placement.price: illegal assignment";
  let p_segments =
    List.map
      (fun (ss, d) -> (ss, d, segment_cost m (ss, d)))
      (segments stages assignment)
  in
  let rec cuts = function
    | (ss, _, _) :: (_ :: _ as rest) -> stage_out_bytes (last ss) + cuts rest
    | _ -> 0
  in
  let p_moved_bytes = cuts p_segments in
  let p_movement =
    if p_moved_bytes = 0 then zero
    else
      {
        latency = m.link.t_fixed +. (float_of_int p_moved_bytes /. m.link.bw);
        energy = float_of_int p_moved_bytes *. m.link.e_per_byte;
      }
  in
  let p_total =
    List.fold_left (fun acc (_, _, c) -> add acc c) p_movement p_segments
  in
  { p_assignment = assignment; p_segments; p_movement; p_moved_bytes; p_total }

let objective_value objective c =
  match objective with
  | Latency -> c.latency
  | Energy -> c.energy
  | Edp -> c.latency *. c.energy

(* Deterministic argmin: enumeration order is fixed, strict improvement
   keeps the earliest winner. *)
let best objective = function
  | [] -> invalid_arg "Placement.choose: no legal assignment"
  | first :: rest ->
      List.fold_left
        (fun b p ->
          let value x = objective_value objective x.p_total in
          if value p < value b then p else b)
        first rest

let choose ?(objective = Energy) ?(filter = fun _ -> true) m stages =
  best objective
    (List.map (price m stages) (List.filter filter (enumerate stages)))

(* ---------- presentation ---------- *)

let stage_label = function
  | Gemv { m; k; n } -> Printf.sprintf "gemv[%dx%dx%d]" m k n
  | Score { q; n; d; metric } ->
      Printf.sprintf "score[%dx%d d=%d %s]" q n d
        (Ir.Attr.as_sym (Dialects.Cim.metric_to_attr metric))
  | Select { q; n; k } -> Printf.sprintf "select[%dx%d k=%d]" q n k

let short_label = function
  | Gemv _ -> "gemv"
  | Score _ -> "score"
  | Select _ -> "select"

let segment_name stages = String.concat "+" (List.map short_label stages)

let assignment_name stages assignment =
  String.concat " "
    (List.map2
       (fun s d -> short_label s ^ "=" ^ device_name d)
       stages assignment)

let table ?(objective = Energy) m stages =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "stages: %s\nobjective: %s\n\n"
       (String.concat " -> " (List.map stage_label stages))
       (objective_name objective));
  Buffer.add_string buf
    (Printf.sprintf "%-34s %14s %14s %10s %14s\n" "assignment" "latency_s"
       "energy_j" "moved_b" "objective");
  let priced = List.map (price m stages) (enumerate stages) in
  let chosen = best objective priced in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-34s %14.6e %14.6e %10d %14.6e%s\n"
           (assignment_name stages p.p_assignment)
           p.p_total.latency p.p_total.energy p.p_moved_bytes
           (objective_value objective p.p_total)
           (if p == chosen then "  <- chosen" else "")))
    priced;
  Buffer.contents buf
