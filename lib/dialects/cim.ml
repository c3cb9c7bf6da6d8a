open Vhelp

let acquire_name = "cim.acquire"
let execute_name = "cim.execute"
let release_name = "cim.release"
let yield_name = "cim.yield"
let similarity_name = "cim.similarity"
let similarity_partial_name = "cim.similarity_partial"
let slice_name = "cim.slice"
let merge_partial_name = "cim.merge_partial"
let select_best_name = "cim.select_best"
let partitioned_similarity_name = "cim.partitioned_similarity"

let compute_mnemonics =
  [ "transpose"; "matmul"; "mm"; "sub"; "div"; "norm"; "topk" ]

let compute_op_names = List.map (fun m -> "cim." ^ m) compute_mnemonics

let torch_twin name =
  match String.index_opt name '.' with
  | Some i when String.sub name 0 i = "torch" ->
      let m = String.sub name (i + 1) (String.length name - i - 1) in
      if List.mem m compute_mnemonics then Some ("cim." ^ m) else None
  | _ -> None

type metric = Dot | Euclidean | Cosine | Hamming

let metric_to_attr = function
  | Dot -> Ir.Attr.Sym "dot"
  | Euclidean -> Ir.Attr.Sym "euclidean"
  | Cosine -> Ir.Attr.Sym "cosine"
  | Hamming -> Ir.Attr.Sym "hamming"

let metric_of_attr a =
  match Ir.Attr.as_sym a with
  | "dot" -> Dot
  | "euclidean" -> Euclidean
  | "cosine" -> Cosine
  | "hamming" -> Hamming
  | s -> invalid_arg ("unknown metric #" ^ s)

let device_type = Ir.Types.Handle "cim.device"

let acquire b ~device =
  Ir.Builder.op1 b ~attrs:[ ("device", Ir.Attr.Str device) ] acquire_name
    device_type

let yield b vs = Ir.Builder.op0 b ~operands:vs yield_name
let release b dev = Ir.Builder.op0 b ~operands:[ dev ] release_name

let similarity_results b name ~operands ~attrs ~q ~k =
  match
    Ir.Builder.op b ~operands ~attrs name
      [ Ir.Types.tensor [ q; k ] Ir.Types.F32;
        Ir.Types.tensor [ q; k ] Ir.Types.I32;
      ]
  with
  | [ values; indices ] -> (values, indices)
  | _ -> assert false

let similarity_partial b ~query ~stored ~metric =
  let q = List.hd (Ir.Types.shape query.Ir.Value.ty) in
  let n' = List.hd (Ir.Types.shape stored.Ir.Value.ty) in
  Ir.Builder.op1 b ~operands:[ query; stored ]
    ~attrs:[ ("metric", metric_to_attr metric) ]
    similarity_partial_name
    (Ir.Types.tensor [ q; n' ] Ir.Types.F32)

let slice b x ~offsets ~sizes =
  Ir.Builder.op1 b ~operands:[ x ]
    ~attrs:[ ("offsets", Ir.Attr.Ints offsets); ("sizes", Ir.Attr.Ints sizes) ]
    slice_name
    (Ir.Types.with_shape x.Ir.Value.ty sizes)

let merge_partial_h b acc part =
  Ir.Builder.op1 b ~operands:[ acc; part ]
    ~attrs:[ ("direction", Ir.Attr.Sym "horizontal"); ("kind", Ir.Attr.Sym "add") ]
    merge_partial_name acc.Ir.Value.ty

let merge_partial_v b global part ~offset =
  Ir.Builder.op1 b ~operands:[ global; part ]
    ~attrs:
      [ ("direction", Ir.Attr.Sym "vertical");
        ("kind", Ir.Attr.Sym "write");
        ("offset", Ir.Attr.Int offset);
      ]
    merge_partial_name global.Ir.Value.ty

let similarity_scores_name = "cim.similarity_scores"
let zeros_name = "cim.zeros"
let reshape_name = "cim.reshape"

let reshape b x shape =
  Ir.Builder.op1 b ~operands:[ x ]
    ~attrs:[ ("shape", Ir.Attr.Ints shape) ]
    reshape_name
    (Ir.Types.tensor shape (Ir.Types.element x.Ir.Value.ty))

let zeros b shape =
  Ir.Builder.op1 b zeros_name (Ir.Types.tensor shape Ir.Types.F32)

let select_best b dist ~k ~largest =
  let q = List.hd (Ir.Types.shape dist.Ir.Value.ty) in
  similarity_results b select_best_name ~operands:[ dist ]
    ~attrs:[ ("k", Ir.Attr.Int k); ("largest", Ir.Attr.Bool largest) ]
    ~q ~k

(* Verifiers *)

let verify_acquire op =
  operands op 0 >>> fun () ->
  results op 1 >>> fun () ->
  has_attr op "device" >>> fun () ->
  result_is op 0 (is_handle "cim.device") "!cim.device"

let verify_execute op =
  check (List.length op.Ir.Op.operands >= 1) "execute needs a device operand"
  >>> fun () ->
  operand_is op 0 (is_handle "cim.device") "!cim.device" >>> fun () ->
  check (List.length op.Ir.Op.regions = 1) "execute needs exactly one region"
  >>> fun () ->
  match List.rev (Ir.Op.body_ops op) with
  | last :: _ when String.equal last.Ir.Op.op_name yield_name ->
      check
        (List.length last.Ir.Op.operands = List.length op.Ir.Op.results)
        "yield arity must match execute results"
  | _ -> Error "execute region must end in cim.yield"

let verify_release op =
  operands op 1 >>> fun () ->
  results op 0 >>> fun () ->
  operand_is op 0 (is_handle "cim.device") "!cim.device"

let verify_similarity op =
  operands op 2 >>> fun () ->
  results op 2 >>> fun () ->
  has_attr op "metric" >>> fun () ->
  has_attr op "k" >>> fun () ->
  operand_is op 0 is_tensor "query tensor" >>> fun () ->
  operand_is op 1 is_tensor "stored tensor" >>> fun () ->
  let qshape = Ir.Types.shape (Ir.Op.operand op 0).ty in
  let sshape = Ir.Types.shape (Ir.Op.operand op 1).ty in
  match (qshape, sshape) with
  | [ _; d1 ], [ _; d2 ] ->
      check (d1 = d2) "similarity: query and stored dims disagree"
  | _ -> Error "similarity: operands must be rank-2 tensors"

let verify_slice op =
  operands op 1 >>> fun () ->
  results op 1 >>> fun () ->
  has_attr op "offsets" >>> fun () ->
  has_attr op "sizes" >>> fun () ->
  let offsets = Ir.Attr.as_ints (Ir.Op.attr_exn op "offsets") in
  let sizes = Ir.Attr.as_ints (Ir.Op.attr_exn op "sizes") in
  let shape = Ir.Types.shape (Ir.Op.operand op 0).ty in
  check
    (List.length offsets = List.length shape
    && List.length sizes = List.length shape)
    "slice: offsets/sizes rank mismatch"
  >>> fun () ->
  check
    (List.for_all2 (fun (o, s) d -> o >= 0 && s >= 1 && o + s <= d)
       (List.combine offsets sizes) shape)
    "slice: out of bounds"

let verify_merge op =
  operands op 2 >>> fun () ->
  results op 1 >>> fun () ->
  has_attr op "direction"

let verify_select_best op =
  operands op 1 >>> fun () ->
  results op 2 >>> fun () ->
  has_attr op "k"

let verify_partitioned op =
  check (List.length op.Ir.Op.regions = 1)
    "partitioned_similarity needs its region"
  >>> fun () ->
  has_attr op "rows" >>> fun () ->
  has_attr op "cols" >>> fun () ->
  has_attr op "metric" >>> fun () -> has_attr op "k"

let register () =
  let reg mnemonic summary verify =
    Ir.Registry.register_op ~dialect:"cim" ~mnemonic ~summary ~verify ()
  in
  reg "acquire" "allocate a CIM device handle" verify_acquire;
  reg "execute" "run a block of ops on a CIM device" verify_execute;
  reg "release" "release a CIM device handle" verify_release;
  reg "yield" "execute-region terminator" (fun _ -> Ok ());
  reg "similarity" "fused k-nearest search (Algorithm 1 result)"
    verify_similarity;
  reg "similarity_partial" "per-tile partial distances" (fun op ->
      operands op 2 >>> fun () -> results op 1);
  reg "slice" "static tensor slice (partitioning)" verify_slice;
  reg "merge_partial" "combine partial results" verify_merge;
  reg "select_best" "final top-k selection over merged distances"
    verify_select_best;
  reg "zeros" "zero-filled tensor (partial-result accumulator seed)"
    (fun op -> operands op 0 >>> fun () -> results op 1);
  reg "similarity_scores" "fused full similarity matrix (cosine pattern)"
    (fun op ->
      operands op 2 >>> fun () ->
      results op 1 >>> fun () -> has_attr op "metric");
  reg "reshape" "same-element-count shape change" (fun op ->
      operands op 1 >>> fun () ->
      results op 1 >>> fun () ->
      check
        (Ir.Types.num_elements (Ir.Op.operand op 0).ty
        = Ir.Types.num_elements (Ir.Op.result op).ty)
        "reshape: element count changes");
  reg "partitioned_similarity"
    "similarity partitioned to device-sized tiles" verify_partitioned;
  List.iter
    (fun m ->
      let summary = "cim twin of torch." ^ m in
      Ir.Registry.register_op ~dialect:"cim" ~mnemonic:m ~summary ())
    compute_mnemonics
