type tensor = { t_shape : int list; t_data : float array }

type buffer = {
  b_shape : int list;
  b_strides : int list;
  b_offset : int;
  b_data : float array;
}

type t =
  | Tensor of tensor
  | Buffer of buffer
  | Index of int
  | Scalar of float
  | Boolean of bool
  | Handle of Camsim.Simulator.id
  | Xtile of Xbar.tile
  | Unit

exception Type_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let numel shape = List.fold_left ( * ) 1 shape

let tensor shape data =
  if numel shape <> Array.length data then
    fail "tensor: shape [%s] disagrees with %d elements"
      (String.concat ";" (List.map string_of_int shape))
      (Array.length data);
  Tensor { t_shape = shape; t_data = data }

let tensor_of_rows rows =
  let r = Array.length rows in
  let c = if r = 0 then 0 else Array.length rows.(0) in
  tensor [ r; c ] (Array.concat (Array.to_list rows))

let zeros_tensor shape = Tensor { t_shape = shape; t_data = Array.make (numel shape) 0. }

let row_major_strides shape =
  let rec go = function
    | [] -> []
    | [ _ ] -> [ 1 ]
    | _ :: rest ->
        let inner = go rest in
        (List.hd inner * List.hd rest) :: inner
  in
  go shape

let fresh_buffer shape =
  {
    b_shape = shape;
    b_strides = row_major_strides shape;
    b_offset = 0;
    b_data = Array.make (numel shape) 0.;
  }

let buffer_of_rows rows =
  let r = Array.length rows in
  let c = if r = 0 then 0 else Array.length rows.(0) in
  {
    b_shape = [ r; c ];
    b_strides = [ c; 1 ];
    b_offset = 0;
    b_data = Array.concat (Array.to_list rows);
  }

let as_tensor = function
  | Tensor t -> t
  | _ -> fail "expected a tensor"

let as_buffer = function
  | Buffer b -> b
  | _ -> fail "expected a buffer"

let as_index = function
  | Index i -> i
  | _ -> fail "expected an index"

let as_bool = function
  | Boolean b -> b
  | _ -> fail "expected a boolean"

let as_handle = function
  | Handle h -> h
  | _ -> fail "expected a device handle"

let as_xtile = function
  | Xtile t -> t
  | _ -> fail "expected a crossbar tile"

let linear_index strides offset idx =
  List.fold_left2 (fun acc s i -> acc + (s * i)) offset strides idx

let buffer_get b idx = b.b_data.(linear_index b.b_strides b.b_offset idx)

let buffer_set b idx v =
  b.b_data.(linear_index b.b_strides b.b_offset idx) <- v

let buffer_rows b =
  match (b.b_shape, b.b_strides) with
  | [ r; c ], [ s0; s1 ] ->
      Array.init r (fun i ->
          Array.init c (fun j -> b.b_data.(b.b_offset + (i * s0) + (j * s1))))
  | _ -> fail "buffer_rows: rank-2 buffer expected"

let buffer_view b ~offsets ~sizes =
  if
    List.length offsets <> List.length b.b_shape
    || List.length sizes <> List.length b.b_shape
  then fail "buffer_view: rank mismatch";
  List.iter2
    (fun (o, s) d ->
      if o < 0 || s < 0 || o + s > d then
        fail "buffer_view: window out of bounds")
    (List.combine offsets sizes)
    b.b_shape;
  {
    b_shape = sizes;
    b_strides = b.b_strides;
    b_offset = linear_index b.b_strides b.b_offset offsets;
    b_data = b.b_data;
  }

let tensor_rows t =
  match t.t_shape with
  | [ r; c ] ->
      Array.init r (fun i -> Array.sub t.t_data (i * c) c)
  | _ -> fail "tensor_rows: rank-2 tensor expected"

let to_rows = function
  | Tensor t -> tensor_rows t
  | Buffer b -> buffer_rows b
  | _ -> fail "expected a rank-2 tensor or buffer"

let to_int_rows v =
  Array.map
    (Array.map (fun f -> int_of_float (Float.round f)))
    (to_rows v)
