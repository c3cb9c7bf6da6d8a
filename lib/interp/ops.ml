(* Runtime semantics the closure-compiled engine (Compile) dispatches
   into: value-level tensor math, the similarity scorers, the device-op
   operand dispatch and the per-dialect execution counters. Compile owns dispatch
   and control flow; everything an op computes lives here. *)

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* ---------- per-dialect execution counters ---------------------------- *)

(* One slot per dialect the interpreter can meet; [n_ops_executed] is a
   deterministic, jobs-invariant proxy for interpreter work (wall-clock
   gating cannot give us that). The engine bumps a slot exactly once
   per executed op, terminators included. *)

let dialect_names =
  [| "arith"; "cam"; "cim"; "crossbar"; "func"; "memref"; "scf"; "torch";
     "other" |]

let n_dialects = Array.length dialect_names

(* Char-dispatch on the qualified name; interpreter op names always come
   from the dialects above, anything else lands in "other". *)
let dialect_index op_name =
  if String.length op_name < 2 then n_dialects - 1
  else
    match String.unsafe_get op_name 0 with
    | 'a' -> 0
    | 'c' -> (
        match String.unsafe_get op_name 1 with
        | 'a' -> 1
        | 'i' -> 2
        | _ -> 3)
    | 'f' -> 4
    | 'm' -> 5
    | 's' -> 6
    | 't' -> 7
    | _ -> n_dialects - 1

let fresh_counts () = Array.make n_dialects 0

let counts_list counts =
  let acc = ref [] in
  for i = n_dialects - 1 downto 0 do
    if counts.(i) > 0 then acc := (dialect_names.(i), counts.(i)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* ---------- outcome ---------------------------------------------------- *)

type outcome = {
  results : Rtval.t list;
  latency : float;
  ops_executed : (string * int) list;
      (** per-dialect executed-op counts, sorted by dialect name;
          identical for any jobs value *)
}

(* Result buffers a caller hands back for reuse by its next run. Only
   the exact buffers this pool lent (the last [lent_max]) are taken
   back, so a result that views an argument or any other storage can
   never be recycled under its holder; a recycled buffer is zeroed, like
   a fresh one. *)
module Pool = struct
  type t = {
    mutable lent : Rtval.buffer list;
    mutable free : Rtval.buffer list;
  }

  let lent_max = 8
  let free_max = 4
  let create () = { lent = []; free = [] }

  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []

  let buffer t shape =
    let b =
      match
        List.find_opt (fun (b : Rtval.buffer) -> b.b_shape = shape) t.free
      with
      | Some b ->
          t.free <- List.filter (fun f -> f != b) t.free;
          Array.fill b.b_data 0 (Array.length b.b_data) 0.;
          b
      | None -> Rtval.fresh_buffer shape
    in
    t.lent <- take lent_max (b :: t.lent);
    b

  let release t results =
    List.iter
      (function
        | Rtval.Buffer b when List.memq b t.lent ->
            t.lent <- List.filter (fun l -> l != b) t.lent;
            if List.length t.free < free_max then t.free <- b :: t.free
        | _ -> ())
      results
end

(* memref.alloc: from the run's pool when it has one, fresh
   otherwise. *)
let alloc_buffer pool shape =
  match pool with
  | None -> Rtval.fresh_buffer shape
  | Some p -> Pool.buffer p shape

(* ---------- torch-level helpers (value semantics) -------------------- *)

let norm_dim rank d = if d < 0 then rank + d else d

let transpose_t (t : Rtval.tensor) d0 d1 =
  let rank = List.length t.t_shape in
  let d0 = norm_dim rank d0 and d1 = norm_dim rank d1 in
  let shape = Array.of_list t.t_shape in
  let out_shape = Array.copy shape in
  out_shape.(d0) <- shape.(d1);
  out_shape.(d1) <- shape.(d0);
  let in_strides = Array.of_list (Rtval.row_major_strides t.t_shape) in
  let out_shape_l = Array.to_list out_shape in
  let out = Array.make (Rtval.numel out_shape_l) 0. in
  let idx = Array.make rank 0 in
  let n = Array.length out in
  let rec fill pos linear =
    if pos = rank then begin
      (* map output index to input index by swapping d0/d1 *)
      let src = ref 0 in
      for k = 0 to rank - 1 do
        let i =
          if k = d0 then idx.(d1) else if k = d1 then idx.(d0) else idx.(k)
        in
        src := !src + (in_strides.(k) * i)
      done;
      out.(linear) <- t.t_data.(!src)
    end
    else
      for i = 0 to out_shape.(pos) - 1 do
        idx.(pos) <- i;
        fill (pos + 1) ((linear * out_shape.(pos)) + i)
      done
  in
  if n > 0 then fill 0 0;
  { Rtval.t_shape = out_shape_l; t_data = out }

let matmul_t (a : Rtval.tensor) (b : Rtval.tensor) =
  match (a.t_shape, b.t_shape) with
  | [ m; k ], [ k'; n ] when k = k' ->
      let out = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        for l = 0 to k - 1 do
          let av = a.t_data.((i * k) + l) in
          if av <> 0. then
            for j = 0 to n - 1 do
              out.((i * n) + j) <-
                out.((i * n) + j) +. (av *. b.t_data.((l * n) + j))
            done
        done
      done;
      { Rtval.t_shape = [ m; n ]; t_data = out }
  | _ -> fail "matmul: rank-2 shapes required"

let ew2 name f (a : Rtval.tensor) (b : Rtval.tensor) =
  match (a.t_shape, b.t_shape) with
  | s1, s2 when s1 = s2 ->
      {
        Rtval.t_shape = s1;
        t_data = Array.mapi (fun i x -> f x b.t_data.(i)) a.t_data;
      }
  | [ n; d ], [ 1; d' ] when d = d' ->
      let out = Array.make (n * d) 0. in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          out.((i * d) + j) <- f a.t_data.((i * d) + j) b.t_data.(j)
        done
      done;
      { Rtval.t_shape = [ n; d ]; t_data = out }
  | [ 1; d ], [ n; d' ] when d = d' ->
      let out = Array.make (n * d) 0. in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          out.((i * d) + j) <- f a.t_data.(j) b.t_data.((i * d) + j)
        done
      done;
      { Rtval.t_shape = [ n; d ]; t_data = out }
  | [ q; 1; d ], [ n; d' ] when d = d' ->
      (* batched KNN broadcast: [Q,1,D] op [N,D] -> [Q,N,D] *)
      let out = Array.make (q * n * d) 0. in
      for qi = 0 to q - 1 do
        for i = 0 to n - 1 do
          for j = 0 to d - 1 do
            out.((((qi * n) + i) * d) + j) <-
              f a.t_data.((qi * d) + j) b.t_data.((i * d) + j)
          done
        done
      done;
      { Rtval.t_shape = [ q; n; d ]; t_data = out }
  | [ q; n ], [ q'; 1 ] when q = q' ->
      let out = Array.make (q * n) 0. in
      for i = 0 to q - 1 do
        for j = 0 to n - 1 do
          out.((i * n) + j) <- f a.t_data.((i * n) + j) b.t_data.(i)
        done
      done;
      { Rtval.t_shape = [ q; n ]; t_data = out }
  | [ q; n ], [ 1; n' ] when n = n' ->
      let out = Array.make (q * n) 0. in
      for i = 0 to q - 1 do
        for j = 0 to n - 1 do
          out.((i * n) + j) <- f a.t_data.((i * n) + j) b.t_data.(j)
        done
      done;
      { Rtval.t_shape = [ q; n ]; t_data = out }
  | _ -> fail "%s: unsupported broadcast" name

(* fused cosine division: x / (nq[i] * ns[j]) *)
let div3_t (x : Rtval.tensor) (nq : Rtval.tensor) (ns : Rtval.tensor) =
  let q, n =
    match x.t_shape with
    | [ q; n ] -> (q, n)
    | _ -> fail "div3: rank-2 scores required"
  in
  if Array.length nq.t_data <> q || Array.length ns.t_data <> n then
    fail "div3: norm lengths disagree with the score matrix";
  let out = Array.make (q * n) 0. in
  for i = 0 to q - 1 do
    for j = 0 to n - 1 do
      out.((i * n) + j) <-
        x.t_data.((i * n) + j) /. (nq.t_data.(i) *. ns.t_data.(j))
    done
  done;
  { Rtval.t_shape = [ q; n ]; t_data = out }

let norm_t (t : Rtval.tensor) ~p ~dim ~keepdim =
  let rank = List.length t.t_shape in
  let dim = norm_dim rank dim in
  let shape = Array.of_list t.t_shape in
  let outer = ref 1 and inner = ref 1 in
  for i = 0 to dim - 1 do
    outer := !outer * shape.(i)
  done;
  for i = dim + 1 to rank - 1 do
    inner := !inner * shape.(i)
  done;
  let d = shape.(dim) in
  let out = Array.make (!outer * !inner) 0. in
  let pf = float_of_int p in
  for o = 0 to !outer - 1 do
    for i = 0 to !inner - 1 do
      let acc = ref 0. in
      for l = 0 to d - 1 do
        let v = Float.abs t.t_data.((((o * d) + l) * !inner) + i) in
        acc := !acc +. (v ** pf)
      done;
      out.((o * !inner) + i) <- !acc ** (1. /. pf)
    done
  done;
  let out_shape =
    List.concat
      (List.mapi
         (fun i s ->
           if i = dim then if keepdim then [ 1 ] else [] else [ s ])
         (Array.to_list shape))
  in
  { Rtval.t_shape = out_shape; t_data = out }

let topk_t (t : Rtval.tensor) ~k ~dim ~largest =
  let rank = List.length t.t_shape in
  let dim = norm_dim rank dim in
  if dim <> rank - 1 then fail "topk: only the last dimension is supported";
  let rows, n =
    match t.t_shape with
    | [ n ] -> (1, n)
    | [ r; n ] -> (r, n)
    | _ -> fail "topk: rank-1 or rank-2 tensor required"
  in
  let values = Array.make (rows * k) 0. in
  let indices = Array.make (rows * k) 0. in
  for r = 0 to rows - 1 do
    let slice = Array.sub t.t_data (r * n) n in
    let cmp a b =
      let va = slice.(a) and vb = slice.(b) in
      let c = if largest then compare vb va else compare va vb in
      if c <> 0 then c else compare a b
    in
    (* partial selection: the index-tiebreak makes cmp a total order,
       so this equals the full-sort prefix at O(n*k) *)
    let order = Camsim.Topk.select ~n ~k ~cmp in
    for j = 0 to k - 1 do
      values.((r * k) + j) <- slice.(order.(j));
      indices.((r * k) + j) <- float_of_int order.(j)
    done
  done;
  let out_shape =
    match t.t_shape with [ _ ] -> [ k ] | _ -> [ rows; k ]
  in
  ( { Rtval.t_shape = out_shape; t_data = values },
    { Rtval.t_shape = out_shape; t_data = indices } )

(* Similarity scores at the cim software level. *)
let rec scores_of metric (query : float array array) (stored : float array array)
    =
  match metric with
  | Dialects.Cim.Hamming -> hamming_scores query stored
  | _ ->
      let q = Array.length query and n = Array.length stored in
      let out = Array.make_matrix q n 0. in
      for i = 0 to q - 1 do
        for j = 0 to n - 1 do
          out.(i).(j) <-
            (match metric with
            | Dialects.Cim.Dot -> dot_arrays query.(i) stored.(j)
            | Dialects.Cim.Cosine -> cosine_arrays query.(i) stored.(j)
            | Dialects.Cim.Euclidean -> eucl_sq_arrays query.(i) stored.(j)
            | Dialects.Cim.Hamming -> hamming_arrays query.(i) stored.(j))
        done
      done;
      out

(* Hamming mirrors the subarray kernel tiers (docs/KERNELS.md): each
   row packs once per batch into its own flat words, pairs of equal
   width sharing a tier go through the bit-packed kernels, everything
   else falls back to the scalar loop. The packed counts equal the
   scalar mismatch counts bit-for-bit, so results never depend on the
   dispatch. *)
and hamming_scores query stored =
  let module K = Camsim.Kernel in
  let pack rows =
    Array.map
      (fun r ->
        let cols = Array.length r in
        let packed words pack_at =
          let w = Array.make (words cols) 0 in
          if pack_at ~cols r ~src:0 ~cs:1 ~width:cols w ~off:0 then Some w
          else None
        in
        ( cols,
          packed K.fbwords_for K.pack_binary_at,
          packed K.fnwords_for K.pack_nibble_at ))
      rows
  in
  let qp = pack query and sp = pack stored in
  let q = Array.length query and n = Array.length stored in
  let out = Array.make_matrix q n 0. in
  for i = 0 to q - 1 do
    let qc, qb, qn = qp.(i) in
    for j = 0 to n - 1 do
      let sc, sb, sn = sp.(j) in
      out.(i).(j) <-
        (if qc <> sc then hamming_arrays query.(i) stored.(j)
         else
           match (qb, sb, qn, sn) with
           | Some a, Some b, _, _ ->
               float_of_int
                 (K.hamming_binary_flat a ~qoff:0 b ~roff:0
                    ~iwords:(K.fbwords_for qc))
           | _, _, Some a, Some b ->
               float_of_int
                 (K.hamming_nibble_flat a ~qoff:0 b ~roff:0
                    ~iwords:(K.fnwords_for qc))
           | _ -> hamming_arrays query.(i) stored.(j))
    done
  done;
  out

and dot_arrays a b =
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

and eucl_sq_arrays a b =
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    s := !s +. (d *. d)
  done;
  !s

and hamming_arrays a b =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> b.(i) then incr s
  done;
  float_of_int !s

and cosine_arrays a b =
  let d = dot_arrays a b in
  let na = sqrt (dot_arrays a a) and nb = sqrt (dot_arrays b b) in
  if na = 0. || nb = 0. then 0. else d /. (na *. nb)

let topk_rows matrix ~k ~largest =
  let q = Array.length matrix in
  let values = Array.make_matrix q k 0. in
  let indices = Array.make_matrix q k 0. in
  for i = 0 to q - 1 do
    let row = matrix.(i) in
    let n = Array.length row in
    let cmp a b =
      let va = row.(a) and vb = row.(b) in
      let c = if largest then compare vb va else compare va vb in
      if c <> 0 then c else compare a b
    in
    let order = Camsim.Topk.select ~n ~k ~cmp in
    for j = 0 to k - 1 do
      values.(i).(j) <- row.(order.(j));
      indices.(i).(j) <- float_of_int order.(j)
    done
  done;
  (values, indices)

(* ---------- cim / cam structural helpers ------------------------------- *)

let merge_horizontal (a : Rtval.tensor) (b : Rtval.tensor) =
  {
    a with
    Rtval.t_data = Array.mapi (fun i x -> x +. b.Rtval.t_data.(i)) a.Rtval.t_data;
  }

let merge_vertical (g : Rtval.tensor) (part : Rtval.tensor) ~offset =
  let q, n =
    match g.t_shape with
    | [ q; n ] -> (q, n)
    | _ -> fail "merge vertical: rank-2 global"
  in
  let pn =
    match part.t_shape with
    | [ _; pn ] -> pn
    | _ -> fail "merge vertical: rank-2 partial"
  in
  let out = Array.copy g.t_data in
  for i = 0 to q - 1 do
    for j = 0 to pn - 1 do
      out.((i * n) + offset + j) <- part.t_data.((i * pn) + j)
    done
  done;
  { Rtval.t_shape = [ q; n ]; t_data = out }

let slice_t (x : Rtval.tensor) ~offsets ~sizes =
  match (x.Rtval.t_shape, offsets, sizes) with
  | [ _; c ], [ o0; o1 ], [ s0; s1 ] ->
      let out = Array.make (s0 * s1) 0. in
      for i = 0 to s0 - 1 do
        Array.blit x.t_data (((o0 + i) * c) + o1) out (i * s1) s1
      done;
      { Rtval.t_shape = [ s0; s1 ]; t_data = out }
  | _ -> fail "slice: rank-2 tensors only"

(* in-place elementwise accumulate of two equally-shaped rank-2 buffers
   (cam.merge_partial / crossbar.accumulate) *)
let buffer_accumulate what (dst : Rtval.buffer) (part : Rtval.buffer) =
  match (dst.b_shape, part.b_shape, dst.b_strides, part.b_strides) with
  | [ q; r ], [ q'; r' ], [ ds0; ds1 ], [ ps0; ps1 ] when q = q' && r = r' ->
      (* direct stride math: the [buffer_get]/[buffer_set] index lists
         would allocate 6 words per element on this hot path *)
      let dd = dst.b_data and pd = part.b_data in
      for i = 0 to q - 1 do
        let db = dst.b_offset + (i * ds0) and pb = part.b_offset + (i * ps0) in
        for j = 0 to r - 1 do
          let di = db + (j * ds1) in
          Array.unsafe_set dd di
            (Array.unsafe_get dd di
            +. Array.unsafe_get pd (pb + (j * ps1)))
        done
      done
  | _ -> fail "%s: shape mismatch" what

(* [buffer_accumulate] with the partial given as rows, as a fused
   cam.read hands them over, into [rows] x [cols] cells of [dd] at
   [off + i*rs + j*cs]: the same shape check (the copying read's buffer
   is [rows; width of the first row]) and the same additions. *)
let rows_accumulate_at what dd ~off ~rows ~cols ~rs ~cs
    (part : float array array) =
  let q = Array.length part in
  let r = if q = 0 then 0 else Array.length part.(0) in
  if q <> rows || r <> cols then fail "%s: shape mismatch" what;
  for i = 0 to q - 1 do
    let db = off + (i * rs) and pr = Array.unsafe_get part i in
    for j = 0 to r - 1 do
      let di = db + (j * cs) in
      Array.unsafe_set dd di (Array.unsafe_get dd di +. Array.unsafe_get pr j)
    done
  done

let rows_accumulate what (dst : Rtval.buffer) part =
  match (dst.b_shape, dst.b_strides) with
  | [ rows; cols ], [ rs; cs ] ->
      rows_accumulate_at what dst.b_data ~off:dst.b_offset ~rows ~cols ~rs ~cs
        part
  | _ -> fail "%s: shape mismatch" what

(* cam.write dispatch: rank-2 buffers and tensors
   hand the simulator a strided window over their storage instead of
   materialized rows, so a replayed unchanged write (the steady state
   of a serving session) allocates nothing. *)
let cam_write sim handle ~row_offset (v : Rtval.t) =
  match v with
  | Rtval.Buffer
      { b_shape = [ rows; cols ]; b_strides = [ s0; s1 ]; b_offset; b_data }
    ->
      Camsim.Simulator.write_view sim handle ~row_offset ~rows ~cols b_data
        ~off:b_offset ~rs:s0 ~cs:s1
  | Rtval.Tensor { t_shape = [ rows; cols ]; t_data } ->
      Camsim.Simulator.write_view sim handle ~row_offset ~rows ~cols t_data
        ~off:0 ~rs:cols ~cs:1
  | _ -> Camsim.Simulator.write sim handle ~row_offset (Rtval.to_rows v)

(* cam.write_range dispatch, the same way: two rank-2 buffers (or
   tensors) of one geometry go to the simulator as strided views over
   their storage; anything else is materialized. *)
let cam_write_range sim handle ~row_offset (lo : Rtval.t) (hi : Rtval.t) =
  match (lo, hi) with
  | ( Rtval.Buffer
        { b_shape = [ rows; cols ]; b_strides = [ s0; s1 ]; b_offset; b_data },
      Rtval.Buffer
        {
          b_shape = [ rows'; cols' ];
          b_strides = [ s0'; s1' ];
          b_offset = off';
          b_data = hi_data;
        } )
    when rows = rows' && cols = cols' && s0 = s0' && s1 = s1'
         && b_offset = off' ->
      Camsim.Simulator.write_range_view sim handle ~row_offset ~rows ~cols
        ~lo:b_data ~hi:hi_data ~off:b_offset ~rs:s0 ~cs:s1
  | ( Rtval.Tensor { t_shape = [ rows; cols ]; t_data },
      Rtval.Tensor { t_shape = [ rows'; cols' ]; t_data = hi_data } )
    when rows = rows' && cols = cols' ->
      Camsim.Simulator.write_range_view sim handle ~row_offset ~rows ~cols
        ~lo:t_data ~hi:hi_data ~off:0 ~rs:cols ~cs:1
  | _ ->
      Camsim.Simulator.write_range sim handle ~row_offset
        ~lo:(Rtval.to_rows lo) ~hi:(Rtval.to_rows hi)

(* cam.search dispatch: the query operand's own window — a buffer's
   geometry, a tensor's rows — goes to the simulator to be read in
   place; no row matrix is built. *)
let cam_search sim handle ~row_offset ~rows ~kind ~metric ~batch_extra
    ~threshold ~stamp (v : Rtval.t) =
  match v with
  | Rtval.Buffer
      { b_shape = [ q; cols ]; b_strides = [ rs; cs ]; b_offset; b_data } ->
      Camsim.Simulator.search_view sim handle ~row_offset ~rows ~kind ~metric
        ~batch_extra ~threshold ~q ~cols b_data ~off:b_offset ~rs ~cs ~stamp
  | Rtval.Tensor { t_shape = [ q; cols ]; t_data } ->
      Camsim.Simulator.search_view sim handle ~row_offset ~rows ~kind ~metric
        ~batch_extra ~threshold ~q ~cols t_data ~off:0 ~rs:cols ~cs:1 ~stamp
  | _ -> raise (Rtval.Type_error "expected a rank-2 tensor or buffer")

let scalar_of what (v : Rtval.t) =
  match v with
  | Rtval.Scalar f -> f
  | Rtval.Index n -> float_of_int n
  | _ -> fail "%s: expected a scalar" what
