type spec = { tile_rows : int; tile_cols : int; max_tiles : int option }

let default_spec = { tile_rows = 128; tile_cols = 128; max_tiles = None }

type tech = {
  name : string;
  t_gemv : float;
  t_write_cell : float;
  e_mac : float;
  e_dac_per_input : float;
  e_adc_per_output : float;
  e_tile_static : float;
  e_write_cell : float;
}

(* ReRAM crossbar in the regime reported by ISAAC/PUMA-class designs:
   ~100 ns per analog GEMV cycle dominated by the ADC sweep, ADCs two to
   three orders costlier than the analog MACs themselves. *)
let reram_28nm =
  {
    name = "ReRAM-28nm";
    t_gemv = 100e-9;
    t_write_cell = 10e-9;
    e_mac = 25e-15;
    e_dac_per_input = 120e-15;
    e_adc_per_output = 2.0e-12;
    e_tile_static = 5.0e-12;
    e_write_cell = 150e-15;
  }

type stats = {
  mutable x_gemvs : int;
  mutable x_writes : int;
  mutable x_energy : float;
  mutable x_tiles : int;
}

type tile = int

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type tile_state = { mutable weights : float array array (* k x n *) }

type t = {
  x_spec : spec;
  x_tech : tech;
  x_stats : stats;
  tiles : (int, tile_state) Hashtbl.t;
  mutable next : int;
}

let create ?(tech = reram_28nm) spec =
  if spec.tile_rows < 1 || spec.tile_cols < 1 then
    err "crossbar tiles need positive geometry";
  {
    x_spec = spec;
    x_tech = tech;
    x_stats = { x_gemvs = 0; x_writes = 0; x_energy = 0.; x_tiles = 0 };
    tiles = Hashtbl.create 64;
    next = 0;
  }

let stats t = t.x_stats

type cost = { latency : float; energy : float }

let alloc_tile t =
  (match t.x_spec.max_tiles with
  | Some m when t.x_stats.x_tiles >= m ->
      err "tile allocation exceeds the configured %d tiles" m
  | _ -> ());
  let id = t.next in
  t.next <- id + 1;
  Hashtbl.replace t.tiles id { weights = [||] };
  t.x_stats.x_tiles <- t.x_stats.x_tiles + 1;
  id

let tile_state t id =
  match Hashtbl.find_opt t.tiles id with
  | Some s -> s
  | None -> err "unknown crossbar tile %d" id

let write t id block =
  let k = Array.length block in
  if k = 0 then err "empty weight block";
  let n = Array.length block.(0) in
  if k > t.x_spec.tile_rows || n > t.x_spec.tile_cols then
    err "weight block %dx%d exceeds the %dx%d tile" k n t.x_spec.tile_rows
      t.x_spec.tile_cols;
  (tile_state t id).weights <- Array.map Array.copy block;
  let cells = float_of_int (k * n) in
  let c =
    {
      latency = float_of_int k *. t.x_tech.t_write_cell *. float_of_int n;
      energy = cells *. t.x_tech.e_write_cell;
    }
  in
  t.x_stats.x_writes <- t.x_stats.x_writes + 1;
  t.x_stats.x_energy <- t.x_stats.x_energy +. c.energy;
  c

let gemv t id inputs =
  let st = tile_state t id in
  let k = Array.length st.weights in
  if k = 0 then err "gemv on an unprogrammed tile";
  let n = Array.length st.weights.(0) in
  let m = Array.length inputs in
  Array.iter
    (fun row ->
      if Array.length row <> k then
        err "gemv: input length %d disagrees with the stored %d rows"
          (Array.length row) k)
    inputs;
  let out = Array.make_matrix m n 0. in
  for i = 0 to m - 1 do
    for l = 0 to k - 1 do
      let x = inputs.(i).(l) in
      if x <> 0. then
        for j = 0 to n - 1 do
          out.(i).(j) <- out.(i).(j) +. (x *. st.weights.(l).(j))
        done
    done
  done;
  let mf = float_of_int m in
  let c =
    {
      latency = mf *. t.x_tech.t_gemv;
      energy =
        mf
        *. ((float_of_int (k * n) *. t.x_tech.e_mac)
           +. (float_of_int k *. t.x_tech.e_dac_per_input)
           +. (float_of_int n *. t.x_tech.e_adc_per_output)
           +. t.x_tech.e_tile_static);
    }
  in
  t.x_stats.x_gemvs <- t.x_stats.x_gemvs + m;
  t.x_stats.x_energy <- t.x_stats.x_energy +. c.energy;
  (out, c)
