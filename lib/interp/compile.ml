(* The interpreter engine.

   Op-name dispatch, attribute decoding and operand resolution happen
   exactly once per function: each op compiles to an OCaml closure
   (threaded code) over a [ctx] whose environment is a flat
   [Rtval.t array] indexed by dense slots, so executing an op is an
   indirect call plus a few array reads.

   Semantic rules:

   - Every SSA id maps to exactly one slot for the whole function, so
     shadowed or duplicated ids overwrite the same cell (the last
     binding wins). Slots start at a sentinel ([unbound]) and reads
     check it, so a use before its definition fails with "use of
     unbound value".
   - Failures surface at execution time: attribute decoding happens at
     compile time, but a decode error is captured and re-raised only
     when the op executes, so dead malformed ops stay silent.
   - scf.parallel is a timing rule, not a request for host
     concurrency: iterations run in order like scf.for, but their
     latencies max-combine instead of summing.
   - Per-dialect execution counters are bumped once per executed op,
     terminators included.
   - A cam.read whose only use is the partial operand of a
     cam.merge_partial, or the distances of a cam.select_best, later in
     its block, with no cam.* op in between, is fused with that op: the
     merge accumulates, and the select ranks, straight from the
     subarray's latched result rows, so no buffer is built for them.
     Both ops still execute (and count) at their own places; results,
     charges and errors are the copying form's.

   Compilation memoizes per domain keyed on the first body op's uid (see
   Ir.Op.uid); the IR is treated as frozen once a function has run. *)

(* Physical sentinel marking a slot that has no binding yet. Never
   exposed; every read compares with (==) against it. *)
let unbound : Rtval.t = Rtval.Scalar Float.nan

type ctx = {
  slots : Rtval.t array;
  sim : Camsim.Simulator.t option;
  xsim : Xbar.t option;
  stamp : int; (* the run's query-slot stamp (Camsim.Scratch) *)
  pool : Ops.Pool.t option;
  counts : int array;
  (* result rows latched by the last fused cam.read, for its merge or
     select; no cam.* op runs between the two, so they are still the
     subarray's *)
  mutable latched : float array array;
}

type flow = Creturn of Rtval.t list | Cyield of Rtval.t list | Cfall

type cop = ctx -> float
(* executes the op: binds results into slots, returns simulated latency *)

type cterm =
  | Tfall
  | Tyield of (ctx -> Rtval.t) array * int (* getters, counter slot *)
  | Treturn of (ctx -> Rtval.t) array * int

type cblk = {
  arg_slots : int array;
  body : cop array; (* ops up to (not including) the first terminator *)
  dials : int array; (* counter slot per body op *)
  term : cterm;
}

type creg =
  | Cblk of cblk
  | Cbad of string (* executing this region fails (multi-block) *)

(* ---------- compile-time environment ---------------------------------- *)

(* How a value of [fn] is defined: a function argument, the result of
   one op, a block argument, or more than one of these. *)
type site = Arg | Def of Ir.Op.t | Bound | Dup

(* Each value's site, and how many operands use it. *)
let def_sites (fn : Ir.Func_ir.func) =
  let t = Hashtbl.create 256 and uses = Hashtbl.create 256 in
  let add site (v : Ir.Value.t) =
    Hashtbl.replace t v.id (if Hashtbl.mem t v.id then Dup else site)
  in
  List.iter (add Arg) fn.fn_args;
  List.iter (add Bound) fn.fn_body.block_args;
  Ir.Walk.iter_ops
    (fun (op : Ir.Op.t) ->
      List.iter (add (Def op)) op.results;
      List.iter
        (fun (v : Ir.Value.t) ->
          Hashtbl.replace uses v.id
            (1 + Option.value ~default:0 (Hashtbl.find_opt uses v.id)))
        op.operands;
      List.iter
        (fun (r : Ir.Op.region) ->
          List.iter (fun (b : Ir.Op.block) -> List.iter (add Bound) b.block_args)
            r.blocks)
        op.regions)
    fn;
  (t, uses)

type cenv = {
  tbl : (int, int) Hashtbl.t;
  mutable n_slots : int;
  fn : Ir.Func_ir.func; (* names values in diagnostics *)
  fusable : (int, unit) Hashtbl.t;
      (* cam.read results with one definition and one use *)
  mutable sites : ((int, site) Hashtbl.t * (int, int) Hashtbl.t) Lazy.t;
      (* [def_sites], for tile plans *)
}

let slot cenv (v : Ir.Value.t) =
  match Hashtbl.find_opt cenv.tbl v.Ir.Value.id with
  | Some s -> s
  | None ->
      let s = cenv.n_slots in
      cenv.n_slots <- s + 1;
      Hashtbl.add cenv.tbl v.Ir.Value.id s;
      s

let def = slot

let use cenv (v : Ir.Value.t) : ctx -> Rtval.t =
  let s = slot cenv v in
  let fn = cenv.fn in
  fun ctx ->
    let r = Array.unsafe_get ctx.slots s in
    if r == unbound then
      (* named as the printer numbers values in this function *)
      Ops.fail "use of unbound value %s" (Ir.Printer.namer fn v)
    else r

let use_index cenv v =
  let g = use cenv v in
  fun ctx -> Rtval.as_index (g ctx)

let use_tensor cenv v =
  let g = use cenv v in
  fun ctx -> Rtval.as_tensor (g ctx)

let use_buffer cenv v =
  let g = use cenv v in
  fun ctx -> Rtval.as_buffer (g ctx)

let use_handle cenv v =
  let g = use cenv v in
  fun ctx -> Rtval.as_handle (g ctx)

let set ctx s r = Array.unsafe_set ctx.slots s r

let simx ctx =
  match ctx.sim with
  | Some s -> s
  | None -> Ops.fail "cam ops need a simulator (pass ~sim to Machine.run)"

let xsimx ctx =
  match ctx.xsim with
  | Some s -> s
  | None -> Ops.fail "crossbar ops need a crossbar (pass ~xsim to Machine.run)"

let attr_i op key = Ir.Attr.as_int (Ir.Op.attr_exn op key)
let attr_b op key = Ir.Attr.as_bool (Ir.Op.attr_exn op key)

(* An arith.cmpi's predicate on indices *)
let cmpi_pred op : int -> int -> bool =
  match Dialects.Arith.pred_of_attr (Ir.Op.attr_exn op "pred") with
  | Dialects.Arith.Lt -> ( < )
  | Le -> ( <= )
  | Eq -> ( = )
  | Ne -> ( <> )
  | Gt -> ( > )
  | Ge -> ( >= )

(* A cam.search's decoded attributes: kind, metric, batch_extra,
   threshold and rows. *)
let search_attrs op =
  let kind =
    match Dialects.Cam.search_kind_of_attr (Ir.Op.attr_exn op "kind") with
    | Dialects.Cam.Exact -> `Exact
    | Best -> `Best
    | Threshold -> `Threshold
    | Range -> `Range
  in
  let metric =
    match Dialects.Cam.search_metric_of_attr (Ir.Op.attr_exn op "metric") with
    | Dialects.Cam.Hamming -> `Hamming
    | Euclidean -> `Euclidean
  in
  let batch_extra =
    match Ir.Op.attr op "batch_extra" with
    | Some a -> Ir.Attr.as_bool a
    | None -> false
  in
  let threshold =
    match Ir.Op.attr op "threshold" with
    | Some a -> Ir.Attr.as_float a
    | None -> 0.
  in
  (kind, metric, batch_extra, threshold, attr_i op "rows")

(* ---------- runtime scaffolding ---------------------------------------- *)

(* Argument-count mismatches raise [Invalid_argument "List.iter2"]. *)
let bind_args ctx (slots : int array) (args : Rtval.t array) =
  let n = Array.length slots in
  if Array.length args <> n then invalid_arg "List.iter2";
  for i = 0 to n - 1 do
    set ctx slots.(i) args.(i)
  done

let bind_results ctx (slots : int array) (vs : Rtval.t list) =
  let n = Array.length slots in
  let rec go i = function
    | [] -> if i <> n then invalid_arg "List.iter2"
    | v :: tl ->
        if i >= n then invalid_arg "List.iter2"
        else begin
          set ctx slots.(i) v;
          go (i + 1) tl
        end
  in
  go 0 vs

(* operands evaluate left to right *)
let eval_list (gs : (ctx -> Rtval.t) array) ctx =
  let n = Array.length gs in
  let rec go i = if i = n then [] else
    let v = gs.(i) ctx in
    v :: go (i + 1)
  in
  go 0

let run_cblk ctx (b : cblk) (args : Rtval.t array) : flow * float =
  bind_args ctx b.arg_slots args;
  let counts = ctx.counts in
  let lat = ref 0. in
  let body = b.body and dials = b.dials in
  for i = 0 to Array.length body - 1 do
    let d = Array.unsafe_get dials i in
    counts.(d) <- counts.(d) + 1;
    lat := !lat +. (Array.unsafe_get body i) ctx
  done;
  match b.term with
  | Tfall -> (Cfall, !lat)
  | Tyield (gs, d) ->
      counts.(d) <- counts.(d) + 1;
      (Cyield (eval_list gs ctx), !lat)
  | Treturn (gs, d) ->
      counts.(d) <- counts.(d) + 1;
      (Creturn (eval_list gs ctx), !lat)

let run_creg ctx (rg : creg) args =
  match rg with Cbad msg -> Ops.fail "%s" msg | Cblk b -> run_cblk ctx b args

let check_loop_flow = function
  | Cfall | Cyield [] -> ()
  | Cyield _ -> Ops.fail "loops do not yield values"
  | Creturn _ -> Ops.fail "cannot return from inside a loop"

let check_if_flow = function
  | Cfall | Cyield [] -> ()
  | _ -> Ops.fail "if region must not produce values"

let is_terminator = function
  | "func.return" | "scf.yield" | "cim.yield" -> true
  | _ -> false

(* A block's ops up to its first terminator, and that terminator. Ops
   past it are dead: execution stops there, so they are not compiled at
   all. *)
let split_terminator (blk : Ir.Op.block) =
  let rec split acc = function
    | [] -> (List.rev acc, None)
    | (op : Ir.Op.t) :: rest ->
        if is_terminator op.op_name then (List.rev acc, Some op)
        else split (op :: acc) rest
  in
  split [] blk.body

(* ---------- cam.read -> cam.merge_partial / cam.select_best fusion ----- *)

(* cam.read results of [fn] with exactly one definition and one use:
   the reads fusion may consider ([fusion_marks] checks the rest). *)
let fusable_reads (fn : Ir.Func_ir.func) =
  let refs = Hashtbl.create 8 in
  Ir.Walk.iter_ops
    (function
      | { Ir.Op.op_name = "cam.read"; results = [ v ]; _ } ->
          Hashtbl.replace refs v.Ir.Value.id (0, 0)
      | _ -> ())
    fn;
  let fusable = Hashtbl.create 8 in
  if Hashtbl.length refs > 0 then begin
    let bump ~def (v : Ir.Value.t) =
      match Hashtbl.find_opt refs v.id with
      | Some (d, u) ->
          Hashtbl.replace refs v.id (if def then (d + 1, u) else (d, u + 1))
      | None -> ()
    in
    List.iter (bump ~def:true) fn.fn_args;
    List.iter (bump ~def:true) fn.fn_body.block_args;
    Ir.Walk.iter_ops
      (fun (op : Ir.Op.t) ->
        List.iter (bump ~def:true) op.results;
        List.iter (bump ~def:false) op.operands;
        List.iter
          (fun (r : Ir.Op.region) ->
            List.iter
              (fun (b : Ir.Op.block) -> List.iter (bump ~def:true) b.block_args)
              r.blocks)
          op.regions)
      fn;
    Hashtbl.iter
      (fun id du -> if du = (1, 1) then Hashtbl.replace fusable id ())
      refs
  end;
  fusable

let rec runs_cam (op : Ir.Op.t) =
  String.starts_with ~prefix:"cam." op.op_name
  || List.exists
       (fun (r : Ir.Op.region) ->
         List.exists
           (fun (b : Ir.Op.block) -> List.exists runs_cam b.body)
           r.blocks)
       op.regions

(* Which ops of a block's body are fused: a fusable read and the
   cam.merge_partial that takes its result as the partial operand, or
   the cam.select_best that ranks it, found before any op that runs a
   cam.* op (merges and selects included). *)
let fusion_marks cenv (ops : Ir.Op.t array) =
  let n = Array.length ops in
  let fused = Array.make n false in
  if Hashtbl.length cenv.fusable > 0 then
    Array.iteri
      (fun i (op : Ir.Op.t) ->
        match op with
        | { op_name = "cam.read"; results = [ v ]; _ }
          when Hashtbl.mem cenv.fusable v.id ->
            let rec scan j =
              if j < n then
                match ops.(j) with
                | ( { op_name = "cam.merge_partial"; operands = [ _; p ]; _ }
                  | { op_name = "cam.select_best"; operands = [ p ]; _ } )
                  when p.Ir.Value.id = v.id ->
                    fused.(i) <- true;
                    fused.(j) <- true
                | o -> if not (runs_cam o) then scan (j + 1)
            in
            scan (i + 1)
        | _ -> ())
      ops;
  fused

(* ---------- tile plans -------------------------------------------------- *)

(* A loop nest whose control is known at compile time (the cam-map tile
   nest of Figure 6 is one) runs from a tile plan: its loops, ifs and
   index arithmetic are evaluated once, here, into the flat sequence of
   device calls the interpreted nest would make, every row, column and
   element offset precomputed, with the per-dialect op counts and the
   sum/max latency tree of the loops beside them. A run checks the
   plan's assumptions about the slots the nest reads, walks the steps
   and calls the same simulator entry points in the same order; on any
   failed check it runs the generic closures instead. See
   docs/INTERPRETER.md, "Tile plans". *)

(* [rows] x [cols] cells of plan input [src]: cell (i, j) at
   [off + i*rs + j*cs] past the input buffer's own offset. *)
type win = { src : int; off : int; rows : int; cols : int; rs : int; cs : int }

type level = L_mat | L_array | L_subarray

type step =
  | Open  (* push a latency accumulator at 0 *)
  | Sum  (* pop one, add it into the one below *)
  | Max  (* pop one, max it into the one below *)
  | Bank of { reg : int; rows : int; cols : int }
  | Child of { level : level; reg : int; parent : int }
  | Write of { h : int; row_offset : int; w : win }
  | Search of {
      h : int;
      row_offset : int;
      rows : int;
      kind : [ `Exact | `Best | `Threshold | `Range ];
      metric : [ `Hamming | `Euclidean ];
      batch_extra : bool;
      threshold : float;
      w : win;
    }
  | Merge of { h : int; w : win; elems : int }
      (* a fused read of [h] and the merge of its rows into [w]: no
         device call runs between the two *)

type plan = {
  p_consts : (int * int) array;  (* slot, the index constant it holds *)
  p_inputs : (int * int list * int list) array;
      (* slot, declared shape, row-major strides of a buffer input *)
  p_steps : step array;
  p_counts : (int * int) array;  (* dialect slot, ops executed *)
  p_regs : int;  (* device handles the steps allocate *)
  p_depth : int;  (* latency accumulators open at once, the loop's own included *)
  p_device : bool;  (* some step needs the simulator *)
}

exception Unplannable

let unplannable () = raise_notrace Unplannable

(* Bounds on a plan's size and on the work of building it: a nest past
   either runs on the generic closures. *)
let plan_max_steps = 1 lsl 20
let plan_max_ops = 1 lsl 22

(* A value as the plan builder sees it. Integers, booleans and handle
   registers live in [ints], windows in [wins]. *)
type pv =
  | Vint of int
  | Vbool of int
  | Vhandle of int
  | Vwin of int
  | Vinput of int  (* a whole buffer input *)
  | Vread of int  (* the rows a fused cam.read of this handle cell latched *)

type pstate = {
  pc : cenv;
  sites : (int, site) Hashtbl.t;
  inner : (int, unit) Hashtbl.t;  (* the values the nest defines *)
  vals : (int, pv) Hashtbl.t;
  mutable n_ints : int;
  mutable n_wins : int;
  mutable consts : (int * int * int) list;  (* int cell, slot, value *)
  mutable inputs : (int * int list * int list) list;  (* reversed *)
  mutable n_inputs : int;
  (* evaluation *)
  mutable ints : int array;
  mutable iset : Bytes.t;  (* which [ints] cells are bound *)
  mutable wins : win array;
  mutable wset : Bytes.t;
  mutable steps : step array;  (* the first [n_steps] are emitted *)
  shared : (win, win) Hashtbl.t;  (* one record per distinct window *)
  mutable n_steps : int;
  mutable n_ops : int;
  mutable regs : int;
  mutable depth : int;
  mutable max_depth : int;
  counts : int array;
}

let no_win = { src = 0; off = 0; rows = 0; cols = 0; rs = 0; cs = 0 }

let bind st (v : Ir.Value.t) pv =
  if Hashtbl.mem st.vals v.id then unplannable ();
  Hashtbl.replace st.vals v.id pv

let new_int st =
  let s = st.n_ints in
  st.n_ints <- s + 1;
  s

(* A value the nest reads: one it defines earlier, an index constant
   or a buffer (a function argument or a memref.alloc) from outside. *)
let pvalue st (v : Ir.Value.t) =
  match Hashtbl.find_opt st.vals v.id with
  | Some pv -> pv
  | None -> (
      if Hashtbl.mem st.inner v.id then unplannable ();
      (* typed as the defining op's result, as the generic engine
         reads it *)
      let site = Hashtbl.find_opt st.sites v.id in
      let ty =
        match site with
        | Some (Def op) -> (Ir.Op.result op).Ir.Value.ty
        | _ -> v.ty
      in
      match (site, ty) with
      | Some (Def ({ op_name = "arith.constant"; _ } as op)), Ir.Types.Index
        -> (
          match Ir.Op.attr op "value" with
          | Some (Ir.Attr.Int c) ->
              let s = new_int st in
              st.consts <- (s, slot st.pc v, c) :: st.consts;
              let pv = Vint s in
              bind st v pv;
              pv
          | _ -> unplannable ())
      | ( Some (Arg | Def { op_name = "memref.alloc"; _ }),
          Ir.Types.Memref (shape, _) ) ->
          let i = st.n_inputs in
          st.n_inputs <- i + 1;
          st.inputs <-
            (slot st.pc v, shape, Rtval.row_major_strides shape) :: st.inputs;
          let pv = Vinput i in
          bind st v pv;
          pv
      | _ -> unplannable ())

let input_info st i = List.nth st.inputs (st.n_inputs - 1 - i)

let int_cell st v =
  match pvalue st v with Vint s -> s | _ -> unplannable ()

let bool_cell st v =
  match pvalue st v with Vbool s -> s | _ -> unplannable ()

let handle_cell st v =
  match pvalue st v with Vhandle s -> s | _ -> unplannable ()

let get st s =
  if Bytes.unsafe_get st.iset s = '\000' then unplannable ();
  Array.unsafe_get st.ints s

let put st s x =
  Array.unsafe_set st.ints s x;
  Bytes.unsafe_set st.iset s '\001'

(* The window a write, search or merge reads: a subview's, or a whole
   rank-2 input's. *)
let window st v : pstate -> win =
  match pvalue st v with
  | Vwin s ->
      fun st ->
        if Bytes.unsafe_get st.wset s = '\000' then unplannable ();
        Array.unsafe_get st.wins s
  | Vinput i -> (
      let _, shape, _ = input_info st i in
      match shape with
      | [ rows; cols ] ->
          let w = { src = i; off = 0; rows; cols; rs = cols; cs = 1 } in
          fun _ -> w
      | _ -> unplannable ())
  | _ -> unplannable ()

(* (dialect slot, count) for each dialect a counter array counted *)
let nonzero_counts counts =
  Array.of_list
    (List.filter
       (fun (_, n) -> n > 0)
       (Array.to_list (Array.mapi (fun d n -> (d, n)) counts)))

let emit st step =
  let n = st.n_steps in
  if n >= plan_max_steps then unplannable ();
  if n = Array.length st.steps then begin
    let grown = Array.make (2 * n) Open in
    Array.blit st.steps 0 grown 0 n;
    st.steps <- grown
  end;
  st.steps.(n) <- step;
  st.n_steps <- n + 1

let open_acc st =
  emit st Open;
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then st.max_depth <- st.depth

(* Close the innermost accumulator into the one below. One that nothing
   was charged to holds 0, and the one below (which starts at 0 and
   only grows) takes [+. 0.] and [Float.max _ 0.] unchanged, so the
   pair is dropped. *)
let close_acc st combine =
  st.depth <- st.depth - 1;
  match st.steps.(st.n_steps - 1) with
  | Open -> st.n_steps <- st.n_steps - 1
  | _ -> emit st combine

let loop_region (op : Ir.Op.t) =
  match op.regions with
  | [ { blocks = [ ({ block_args = [ iv ]; _ } as blk) ] } ] -> (iv, blk)
  | _ -> unplannable ()

let if_block (r : Ir.Op.region) =
  match r.blocks with
  | [ ({ block_args = []; _ } as blk) ] -> blk
  | _ -> unplannable ()

(* Compile one block of the nest into its evaluator: it bumps the
   block's op counts, as the generic engine does once per executed op,
   and evaluates the ops in order. *)
let rec plan_block st (blk : Ir.Op.block) : pstate -> unit =
  let body, term = split_terminator blk in
  (match term with
  | None -> ()
  | Some { op_name = "scf.yield" | "cim.yield"; operands = []; _ } -> ()
  | Some _ -> unplannable ());
  let ops = Array.of_list body in
  let fused = fusion_marks st.pc ops in
  let evals = Array.mapi (fun i op -> plan_op st ~fused:fused.(i) op) ops in
  let counts = Ops.fresh_counts () in
  List.iter
    (fun (op : Ir.Op.t) ->
      let d = Ops.dialect_index op.op_name in
      counts.(d) <- counts.(d) + 1)
    (body @ Option.to_list term);
  let counts = nonzero_counts counts in
  let n = Array.length ops in
  fun st ->
    st.n_ops <- st.n_ops + n;
    if st.n_ops > plan_max_ops then unplannable ();
    Array.iter (fun (d, n) -> st.counts.(d) <- st.counts.(d) + n) counts;
    Array.iter (fun f -> f st) evals

(* The iterations of a loop; [root] is the nest's own loop, whose total
   is the bottom accumulator rather than one it opens. *)
and plan_loop ~root st (op : Ir.Op.t) : pstate -> unit =
  let parallel = String.equal op.op_name "scf.parallel" in
  let lb, ub, step =
    match op.operands with
    | [ lb; ub; step ] -> (int_cell st lb, int_cell st ub, int_cell st step)
    | _ -> unplannable ()
  in
  let iv, blk = loop_region op in
  let ivs = new_int st in
  bind st iv (Vint ivs);
  let body = plan_block st blk in
  let combine = if parallel then Max else Sum in
  fun st ->
    let lb = get st lb and ub = get st ub and step = get st step in
    if step <= 0 then unplannable ();
    if not root then open_acc st;
    let i = ref lb in
    while !i < ub do
      open_acc st;
      put st ivs !i;
      body st;
      close_acc st combine;
      i := !i + step
    done;
    if not root then close_acc st Sum

and plan_op st ~fused (op : Ir.Op.t) : pstate -> unit =
  let result () =
    match op.results with [ v ] -> v | _ -> unplannable ()
  in
  let def_int mk =
    let s = new_int st in
    bind st (result ()) (mk s);
    s
  in
  match op.op_name with
  | "arith.constant" -> (
      match (Ir.Op.attr op "value", (result ()).ty) with
      | Some (Ir.Attr.Int c), Ir.Types.Index ->
          let s = def_int (fun s -> Vint s) in
          fun st -> put st s c
      | _ -> unplannable ())
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divi" | "arith.remi"
  | "arith.cmpi" -> (
      let a, b =
        match op.operands with
        | [ a; b ] -> (int_cell st a, int_cell st b)
        | _ -> unplannable ()
      in
      let arith f =
        let s = def_int (fun s -> Vint s) in
        fun st -> put st s (f (get st a) (get st b))
      in
      let nonzero f x y = if y = 0 then unplannable () else f x y in
      match op.op_name with
      | "arith.addi" -> arith ( + )
      | "arith.subi" -> arith ( - )
      | "arith.muli" -> arith ( * )
      | "arith.divi" -> arith (nonzero ( / ))
      | "arith.remi" -> arith (nonzero ( mod ))
      | _ ->
          let cmp = cmpi_pred op in
          let s = def_int (fun s -> Vbool s) in
          fun st -> put st s (Bool.to_int (cmp (get st a) (get st b))))
  | "scf.for" | "scf.parallel" -> plan_loop ~root:false st op
  | "scf.if" -> (
      let c = match op.operands with [ c ] -> bool_cell st c | _ -> unplannable () in
      let branch r =
        let body = plan_block st (if_block r) in
        fun st ->
          open_acc st;
          body st;
          close_acc st Sum
      in
      match op.regions with
      | [ t ] ->
          let t = branch t in
          fun st -> if get st c <> 0 then t st
      | [ t; e ] ->
          let t = branch t and e = branch e in
          fun st -> if get st c <> 0 then t st else e st
      | _ -> unplannable ())
  | "cam.alloc_bank" ->
      let rows = attr_i op "rows" and cols = attr_i op "cols" in
      let s = def_int (fun s -> Vhandle s) in
      fun st ->
        let reg = st.regs in
        st.regs <- reg + 1;
        emit st (Bank { reg; rows; cols });
        put st s reg
  | "cam.alloc_mat" | "cam.alloc_array" | "cam.alloc_subarray" ->
      let level =
        match op.op_name with
        | "cam.alloc_mat" -> L_mat
        | "cam.alloc_array" -> L_array
        | _ -> L_subarray
      in
      let p = match op.operands with [ p ] -> handle_cell st p | _ -> unplannable () in
      let s = def_int (fun s -> Vhandle s) in
      fun st ->
        let reg = st.regs in
        st.regs <- reg + 1;
        emit st (Child { level; reg; parent = get st p });
        put st s reg
  | "memref.subview" -> (
      match op.operands with
      | [ base; o0; o1 ] -> (
          let src =
            match pvalue st base with Vinput i -> i | _ -> unplannable ()
          in
          let o0 = int_cell st o0 and o1 = int_cell st o1 in
          let _, shape, strides = input_info st src in
          match (Ir.Attr.as_ints (Ir.Op.attr_exn op "sizes"), shape, strides) with
          | [ rows; cols ], [ d0; d1 ], [ rs; cs ] ->
              let s = st.n_wins in
              st.n_wins <- s + 1;
              bind st (result ()) (Vwin s);
              fun st ->
                let a = get st o0 and b = get st o1 in
                if a < 0 || rows < 0 || a + rows > d0 || b < 0 || cols < 0
                   || b + cols > d1
                then unplannable ();
                let w = { src; off = (a * rs) + (b * cs); rows; cols; rs; cs } in
                Array.unsafe_set st.wins s
                  (match Hashtbl.find_opt st.shared w with
                  | Some w -> w
                  | None ->
                      Hashtbl.add st.shared w w;
                      w);
                Bytes.unsafe_set st.wset s '\001'
          | _ -> unplannable ())
      | _ -> unplannable ())
  | "cam.write_value" -> (
      match op.operands with
      | [ h; data; off ] ->
          let h = handle_cell st h and w = window st data in
          let off = int_cell st off in
          fun st ->
            emit st (Write { h = get st h; row_offset = get st off; w = w st })
      | _ -> unplannable ())
  | "cam.search" -> (
      match op.operands with
      | [ h; query; off ] ->
          let h = handle_cell st h and w = window st query in
          let off = int_cell st off in
          let kind, metric, batch_extra, threshold, rows = search_attrs op in
          fun st ->
            emit st
              (Search
                 {
                   h = get st h;
                   row_offset = get st off;
                   rows;
                   kind;
                   metric;
                   batch_extra;
                   threshold;
                   w = w st;
                 })
      | _ -> unplannable ())
  | "cam.read" when fused -> (
      match op.operands with
      | [ h ] ->
          let h = handle_cell st h in
          bind st (result ()) (Vread h);
          fun _ -> ()
      | _ -> unplannable ())
  | "cam.merge_partial" when fused -> (
      match op.operands with
      | [ dst; part ] ->
          let w = window st dst in
          let h = match pvalue st part with Vread h -> h | _ -> unplannable () in
          fun st ->
            let w = w st in
            emit st (Merge { h = get st h; w; elems = w.rows * w.cols })
      | _ -> unplannable ())
  | _ -> unplannable ()

(* Every value the nest defines. Each must be defined exactly once in
   the function and used only inside the nest: a plan binds no slot, so
   a use after the nest would find none. *)
let nest_defs (sites, uses) (root : Ir.Op.t) =
  let inner = Hashtbl.create 64 and inner_uses = Hashtbl.create 64 in
  let add (v : Ir.Value.t) =
    match Hashtbl.find_opt sites v.id with
    | Some (Def _ | Bound) -> Hashtbl.replace inner v.id ()
    | _ -> unplannable ()
  in
  let rec go (op : Ir.Op.t) =
    List.iter
      (fun (r : Ir.Op.region) ->
        List.iter
          (fun (b : Ir.Op.block) ->
            List.iter add b.block_args;
            List.iter
              (fun (o : Ir.Op.t) ->
                List.iter add o.results;
                List.iter
                  (fun (v : Ir.Value.t) ->
                    Hashtbl.replace inner_uses v.id
                      (1 + Option.value ~default:0 (Hashtbl.find_opt inner_uses v.id)))
                  o.operands;
                go o)
              b.body)
          r.blocks)
      op.regions
  in
  go root;
  Hashtbl.iter
    (fun id () ->
      if Hashtbl.find_opt uses id <> Hashtbl.find_opt inner_uses id then
        unplannable ())
    inner;
  inner

(* Give every value the nest names a slot now: the generic closures a
   fallback builds later must find them all, since the run's slot array
   is sized when the function compiles. *)
let reserve_slots cenv (root : Ir.Op.t) =
  let name v = ignore (slot cenv v) in
  let rec go (o : Ir.Op.t) =
    List.iter name o.operands;
    List.iter name o.results;
    List.iter
      (fun (r : Ir.Op.region) ->
        List.iter
          (fun (b : Ir.Op.block) ->
            List.iter name b.block_args;
            List.iter go b.body)
          r.blocks)
      o.regions
  in
  go root

(* The tile plan of loop [root], or [None] when the nest does not
   qualify. *)
let build_plan (cenv : cenv) (root : Ir.Op.t) =
  try
    let sites = Lazy.force cenv.sites in
    let st =
      {
        pc = cenv;
        sites = fst sites;
        inner = nest_defs sites root;
        vals = Hashtbl.create 64;
        n_ints = 0;
        n_wins = 0;
        consts = [];
        inputs = [];
        n_inputs = 0;
        ints = [||];
        iset = Bytes.empty;
        wins = [||];
        wset = Bytes.empty;
        steps = Array.make 64 Open;
        shared = Hashtbl.create 64;
        n_steps = 0;
        n_ops = 0;
        regs = 0;
        depth = 0;
        max_depth = 0;
        counts = Ops.fresh_counts ();
      }
    in
    let eval = plan_loop ~root:true st root in
    st.ints <- Array.make st.n_ints 0;
    st.iset <- Bytes.make st.n_ints '\000';
    st.wins <- Array.make st.n_wins no_win;
    st.wset <- Bytes.make st.n_wins '\000';
    List.iter (fun (s, _, c) -> put st s c) st.consts;
    eval st;
    let steps = Array.sub st.steps 0 st.n_steps in
    reserve_slots cenv root;
    Some
      {
        p_consts = Array.of_list (List.map (fun (_, s, c) -> (s, c)) st.consts);
        p_inputs = Array.of_list (List.rev st.inputs);
        p_steps = steps;
        p_counts = nonzero_counts st.counts;
        p_regs = st.regs;
        p_depth = st.max_depth + 1;
        p_device =
          Array.exists (function Open | Sum | Max -> false | _ -> true) steps;
      }
  with
  | Unplannable | Invalid_argument _ | Failure _ | Not_found
  | Ops.Runtime_error _ ->
      None

(* The slots the nest reads hold what the plan was built against:
   each constant its value, each buffer input a buffer of the declared
   shape with row-major strides. Fills [datas]/[bases] with the inputs'
   storage and offsets. *)
let plan_holds ctx p datas bases =
  let rec consts i =
    i = Array.length p.p_consts
    ||
    let s, c = Array.unsafe_get p.p_consts i in
    (match Array.unsafe_get ctx.slots s with
    | Rtval.Index c' -> c' = c
    | _ -> false)
    && consts (i + 1)
  in
  let rec inputs i =
    i = Array.length p.p_inputs
    ||
    let s, shape, strides = Array.unsafe_get p.p_inputs i in
    match Array.unsafe_get ctx.slots s with
    | Rtval.Buffer b
      when List.equal Int.equal b.b_shape shape
           && List.equal Int.equal b.b_strides strides ->
        datas.(i) <- b.b_data;
        bases.(i) <- b.b_offset;
        inputs (i + 1)
    | _ -> false
  in
  consts 0 && inputs 0

let run_plan ctx p datas bases =
  let stack = Array.make p.p_depth 0. in
  let sp = ref 0 in
  let regs = ref [||] in
  let set_reg r h =
    if Array.length !regs = 0 then regs := Array.make p.p_regs h;
    Array.unsafe_set !regs r h
  in
  let charge (c : Camsim.Energy_model.cost) =
    Array.unsafe_set stack !sp (Array.unsafe_get stack !sp +. c.latency)
  in
  let steps = p.p_steps in
  for i = 0 to Array.length steps - 1 do
    match Array.unsafe_get steps i with
    | Open ->
        incr sp;
        Array.unsafe_set stack !sp 0.
    | Sum ->
        let v = Array.unsafe_get stack !sp in
        decr sp;
        Array.unsafe_set stack !sp (Array.unsafe_get stack !sp +. v)
    | Max ->
        let v = Array.unsafe_get stack !sp in
        decr sp;
        Array.unsafe_set stack !sp (Float.max (Array.unsafe_get stack !sp) v)
    | Bank { reg; rows; cols } ->
        set_reg reg (Camsim.Simulator.alloc_bank (simx ctx) ~rows ~cols)
    | Child { level; reg; parent } ->
        let parent = Array.unsafe_get !regs parent in
        set_reg reg
          (match level with
          | L_mat -> Camsim.Simulator.alloc_mat (simx ctx) parent
          | L_array -> Camsim.Simulator.alloc_array (simx ctx) parent
          | L_subarray -> Camsim.Simulator.alloc_subarray (simx ctx) parent)
    | Write { h; row_offset; w } ->
        charge
          (Camsim.Simulator.write_view (simx ctx) (Array.unsafe_get !regs h)
             ~row_offset ~rows:w.rows ~cols:w.cols (Array.unsafe_get datas w.src)
             ~off:(Array.unsafe_get bases w.src + w.off)
             ~rs:w.rs ~cs:w.cs)
    | Search { h; row_offset; rows; kind; metric; batch_extra; threshold; w } ->
        charge
          (Camsim.Simulator.search_view (simx ctx) (Array.unsafe_get !regs h)
             ~row_offset ~rows ~kind ~metric ~batch_extra ~threshold ~q:w.rows
             ~cols:w.cols (Array.unsafe_get datas w.src)
             ~off:(Array.unsafe_get bases w.src + w.off)
             ~rs:w.rs ~cs:w.cs ~stamp:ctx.stamp)
    | Merge { h; w; elems } ->
        ctx.latched <- Camsim.Simulator.read (simx ctx) (Array.unsafe_get !regs h);
        let data = Array.unsafe_get datas w.src in
        Ops.rows_accumulate_at "cam.merge_partial" data
          ~off:(Array.unsafe_get bases w.src + w.off)
          ~rows:w.rows ~cols:w.cols ~rs:w.rs ~cs:w.cs ctx.latched;
        Camsim.Scratch.drop_queries data;
        charge (Camsim.Simulator.merge (simx ctx) ~elems)
  done;
  Array.iter (fun (d, n) -> ctx.counts.(d) <- ctx.counts.(d) + n) p.p_counts;
  Array.unsafe_get stack 0

(* The nest's op: its plan when the checks hold, else the generic
   closures, built on the first such run. *)
let planned p (generic : cop Lazy.t) : cop =
  let n = Array.length p.p_inputs in
  fun ctx ->
    let datas = Array.make n [||] and bases = Array.make n 0 in
    if (p.p_device && Option.is_none ctx.sim)
       || not (plan_holds ctx p datas bases)
    then (Lazy.force generic) ctx
    else run_plan ctx p datas bases

(* ---------- the op compiler -------------------------------------------- *)

(* [fused]: the op is one half of a fused read/merge or read/select
   pair *)
let rec compile_op ?(fused = false) cenv (op : Ir.Op.t) : cop =
  try compile_op_inner ~fused cenv op
  with (Ops.Runtime_error _ | Invalid_argument _ | Failure _) as e ->
    (* decoding failed at compile time; defer the error to execution
       time so dead malformed ops stay silent *)
    fun _ -> raise e

and compile_op_inner ~fused cenv (op : Ir.Op.t) : cop =
  let def1 () = def cenv (Ir.Op.result op) in
  let opnd i = Ir.Op.operand op i in
  match op.op_name with
  (* ---- torch / cim compute twins ---- *)
  | "torch.transpose" | "cim.transpose" ->
      let g = use_tensor cenv (opnd 0) in
      let d0, d1 =
        match Ir.Attr.as_ints (Ir.Op.attr_exn op "dims") with
        | [ d0; d1 ] -> (d0, d1)
        | _ -> Ops.fail "transpose: bad dims"
      in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.transpose_t (g ctx) d0 d1));
        0.
  | "torch.matmul" | "torch.mm" | "cim.matmul" | "cim.mm" ->
      let a = use_tensor cenv (opnd 0) in
      let b = use_tensor cenv (opnd 1) in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.matmul_t (a ctx) (b ctx)));
        0.
  | "torch.sub" | "cim.sub" ->
      let a = use_tensor cenv (opnd 0) in
      let b = use_tensor cenv (opnd 1) in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.ew2 "sub" ( -. ) (a ctx) (b ctx)));
        0.
  | "torch.div" | "cim.div" -> (
      match op.operands with
      | [ _; _ ] ->
          let a = use_tensor cenv (opnd 0) in
          let b = use_tensor cenv (opnd 1) in
          let s = def1 () in
          fun ctx ->
            set ctx s (Rtval.Tensor (Ops.ew2 "div" ( /. ) (a ctx) (b ctx)));
            0.
      | [ _; _; _ ] ->
          let x = use_tensor cenv (opnd 0) in
          let nq = use_tensor cenv (opnd 1) in
          let ns = use_tensor cenv (opnd 2) in
          let s = def1 () in
          fun ctx ->
            set ctx s (Rtval.Tensor (Ops.div3_t (x ctx) (nq ctx) (ns ctx)));
            0.
      | _ -> Ops.fail "div: 2 or 3 operands expected")
  | "torch.norm" | "cim.norm" ->
      let g = use_tensor cenv (opnd 0) in
      let p = attr_i op "p" and dim = attr_i op "dim" in
      let keepdim =
        match Ir.Op.attr op "keepdim" with
        | Some a -> Ir.Attr.as_bool a
        | None -> false
      in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.norm_t (g ctx) ~p ~dim ~keepdim));
        0.
  | "torch.topk" | "cim.topk" ->
      let g = use_tensor cenv (opnd 0) in
      let k = attr_i op "k" and dim = attr_i op "dim" in
      let largest = attr_b op "largest" in
      let s0 = def cenv (Ir.Op.result_n op 0) in
      let s1 = def cenv (Ir.Op.result_n op 1) in
      fun ctx ->
        let values, indices = Ops.topk_t (g ctx) ~k ~dim ~largest in
        set ctx s0 (Rtval.Tensor values);
        set ctx s1 (Rtval.Tensor indices);
        0.
  (* ---- cim programming model ---- *)
  | "cim.acquire" ->
      let s = def1 () in
      fun ctx ->
        set ctx s Rtval.Unit;
        0.
  | "cim.release" -> fun _ -> 0.
  | "cim.execute" | "cim.partitioned_similarity" -> (
      let yield_msg, region_msg =
        if String.equal op.op_name "cim.execute" then
          ("execute region must yield", "execute needs one region")
        else
          ( "partitioned_similarity region must yield",
            "partitioned_similarity needs its region" )
      in
      match op.regions with
      | [ r ] ->
          let rg = compile_region cenv r in
          let res_slots = Array.of_list (List.map (def cenv) op.results) in
          fun ctx -> (
            match run_creg ctx rg [||] with
            | Cyield vs, lat ->
                bind_results ctx res_slots vs;
                lat
            | (Creturn _ | Cfall), _ -> Ops.fail "%s" yield_msg)
      | _ -> fun _ -> Ops.fail "%s" region_msg)
  | "cim.zeros" ->
      let shape = Ir.Types.shape (Ir.Op.result op).Ir.Value.ty in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.zeros_tensor shape);
        0.
  | "cim.reshape" ->
      let g = use_tensor cenv (opnd 0) in
      let shape = Ir.Types.shape (Ir.Op.result op).Ir.Value.ty in
      let s = def1 () in
      fun ctx ->
        let x = g ctx in
        set ctx s (Rtval.Tensor { x with t_shape = shape });
        0.
  | "cim.slice" ->
      let g = use_tensor cenv (opnd 0) in
      let offsets = Ir.Attr.as_ints (Ir.Op.attr_exn op "offsets") in
      let sizes = Ir.Attr.as_ints (Ir.Op.attr_exn op "sizes") in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.slice_t (g ctx) ~offsets ~sizes));
        0.
  | "cim.similarity" ->
      let metric = Dialects.Cim.metric_of_attr (Ir.Op.attr_exn op "metric") in
      let a = use_tensor cenv (opnd 0) in
      let b = use_tensor cenv (opnd 1) in
      let k = attr_i op "k" and largest = attr_b op "largest" in
      let s0 = def cenv (Ir.Op.result_n op 0) in
      let s1 = def cenv (Ir.Op.result_n op 1) in
      fun ctx ->
        let scores =
          Ops.scores_of metric
            (Rtval.tensor_rows (a ctx))
            (Rtval.tensor_rows (b ctx))
        in
        let values, indices = Ops.topk_rows scores ~k ~largest in
        set ctx s0 (Rtval.tensor_of_rows values);
        set ctx s1 (Rtval.tensor_of_rows indices);
        0.
  | "cim.similarity_scores" | "cim.similarity_partial" ->
      let metric = Dialects.Cim.metric_of_attr (Ir.Op.attr_exn op "metric") in
      let a = use_tensor cenv (opnd 0) in
      let b = use_tensor cenv (opnd 1) in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.tensor_of_rows
             (Ops.scores_of metric
                (Rtval.tensor_rows (a ctx))
                (Rtval.tensor_rows (b ctx))));
        0.
  | "cim.merge_partial" -> (
      match Ir.Attr.as_sym (Ir.Op.attr_exn op "direction") with
      | "horizontal" ->
          let a = use_tensor cenv (opnd 0) in
          let b = use_tensor cenv (opnd 1) in
          let s = def1 () in
          fun ctx ->
            set ctx s (Rtval.Tensor (Ops.merge_horizontal (a ctx) (b ctx)));
            0.
      | "vertical" ->
          let g = use_tensor cenv (opnd 0) in
          let part = use_tensor cenv (opnd 1) in
          let offset = attr_i op "offset" in
          let s = def1 () in
          fun ctx ->
            set ctx s
              (Rtval.Tensor (Ops.merge_vertical (g ctx) (part ctx) ~offset));
            0.
      | d -> Ops.fail "merge_partial: unknown direction %s" d)
  | "cim.select_best" ->
      (* accepts tensors (cim level) and buffers (the host-loops path) *)
      let g = use cenv (opnd 0) in
      let k = attr_i op "k" and largest = attr_b op "largest" in
      let s0 = def cenv (Ir.Op.result_n op 0) in
      let s1 = def cenv (Ir.Op.result_n op 1) in
      fun ctx ->
        let scores = Rtval.to_rows (g ctx) in
        let values, indices = Ops.topk_rows scores ~k ~largest in
        set ctx s0 (Rtval.tensor_of_rows values);
        set ctx s1 (Rtval.tensor_of_rows indices);
        0.
  (* ---- arith ---- *)
  | "arith.constant" ->
      let v =
        match (Ir.Op.attr_exn op "value", (Ir.Op.result op).Ir.Value.ty) with
        | Ir.Attr.Int i, Ir.Types.Index -> Rtval.Index i
        | Ir.Attr.Int i, _ -> Rtval.Scalar (float_of_int i)
        | Ir.Attr.Float f, _ -> Rtval.Scalar f
        | _ -> Ops.fail "constant: unsupported value"
      in
      let s = def1 () in
      fun ctx ->
        set ctx s v;
        0.
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divi" | "arith.remi"
    -> (
      let a = use_index cenv (opnd 0) in
      let b = use_index cenv (opnd 1) in
      let s = def1 () in
      match op.op_name with
      | "arith.addi" ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            set ctx s (Rtval.Index (av + bv));
            0.
      | "arith.subi" ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            set ctx s (Rtval.Index (av - bv));
            0.
      | "arith.muli" ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            set ctx s (Rtval.Index (av * bv));
            0.
      | "arith.divi" ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            if bv = 0 then Ops.fail "divi: division by zero";
            set ctx s (Rtval.Index (av / bv));
            0.
      | _ ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            if bv = 0 then Ops.fail "remi: division by zero";
            set ctx s (Rtval.Index (av mod bv));
            0.)
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" ->
      let what = op.op_name in
      let ga = use cenv (opnd 0) in
      let gb = use cenv (opnd 1) in
      let f : float -> float -> float =
        match op.op_name with
        | "arith.addf" -> ( +. )
        | "arith.subf" -> ( -. )
        | "arith.mulf" -> ( *. )
        | _ -> ( /. )
      in
      let s = def1 () in
      fun ctx ->
        let a = Ops.scalar_of what (ga ctx) in
        let b = Ops.scalar_of what (gb ctx) in
        set ctx s (Rtval.Scalar (f a b));
        0.
  | "arith.cmpf" ->
      let ga = use cenv (opnd 0) in
      let gb = use cenv (opnd 1) in
      let scal g ctx =
        match g ctx with
        | Rtval.Scalar f -> f
        | _ -> Ops.fail "cmpf: expected a scalar"
      in
      let cmp : float -> float -> bool =
        match Dialects.Arith.pred_of_attr (Ir.Op.attr_exn op "pred") with
        | Dialects.Arith.Lt -> ( < )
        | Le -> ( <= )
        | Eq -> ( = )
        | Ne -> ( <> )
        | Gt -> ( > )
        | Ge -> ( >= )
      in
      let s = def1 () in
      fun ctx ->
        let a = scal ga ctx in
        let b = scal gb ctx in
        set ctx s (Rtval.Boolean (cmp a b));
        0.
  | "arith.cmpi" ->
      let a = use_index cenv (opnd 0) in
      let b = use_index cenv (opnd 1) in
      let cmp = cmpi_pred op in
      let s = def1 () in
      fun ctx ->
        let av = a ctx in
        let bv = b ctx in
        set ctx s (Rtval.Boolean (cmp av bv));
        0.
  | "arith.select" ->
      let c = use cenv (opnd 0) in
      let a = use cenv (opnd 1) in
      let b = use cenv (opnd 2) in
      let s = def1 () in
      fun ctx ->
        set ctx s (if Rtval.as_bool (c ctx) then a ctx else b ctx);
        0.
  (* ---- scf ---- *)
  | "scf.for" | "scf.parallel" -> (
      match build_plan cenv op with
      | Some p ->
          let n = cenv.n_slots in
          planned p
            (lazy
              (let c = compile_loop cenv op in
               (* [build_plan] reserved every slot the nest names *)
               if cenv.n_slots <> n then
                 failwith "Compile: a tile plan's fallback named a new value";
               c))
      | None -> compile_loop cenv op)
  | "scf.if" -> (
      let c = use cenv (opnd 0) in
      match op.regions with
      | [ then_r ] ->
          let rt = compile_region cenv then_r in
          fun ctx ->
            if Rtval.as_bool (c ctx) then begin
              let fl, lat = run_creg ctx rt [||] in
              check_if_flow fl;
              lat
            end
            else 0.
      | [ then_r; else_r ] ->
          let rt = compile_region cenv then_r in
          let re = compile_region cenv else_r in
          fun ctx ->
            let fl, lat =
              run_creg ctx (if Rtval.as_bool (c ctx) then rt else re) [||]
            in
            check_if_flow fl;
            lat
      | _ ->
          fun ctx ->
            let _ = Rtval.as_bool (c ctx) in
            Ops.fail "if needs one or two regions")
  (* ---- memref ---- *)
  | "memref.alloc" ->
      let shape = Ir.Types.shape (Ir.Op.result op).Ir.Value.ty in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Buffer (Ops.alloc_buffer ctx.pool shape));
        0.
  | "memref.load" ->
      let bg = use_buffer cenv (opnd 0) in
      let idxs = List.map (use_index cenv) (List.tl op.operands) in
      let s = def1 () in
      fun ctx ->
        let base = bg ctx in
        let indices = List.map (fun g -> g ctx) idxs in
        set ctx s (Rtval.Scalar (Rtval.buffer_get base indices));
        0.
  | "memref.store" ->
      let vg = use cenv (opnd 0) in
      let bg = use_buffer cenv (opnd 1) in
      let idxs = List.map (use_index cenv) (List.tl (List.tl op.operands)) in
      fun ctx ->
        let value =
          match vg ctx with
          | Rtval.Scalar f -> f
          | Rtval.Index n -> float_of_int n
          | _ -> Ops.fail "store: expected a scalar value"
        in
        let base = bg ctx in
        let indices = List.map (fun g -> g ctx) idxs in
        Rtval.buffer_set base indices value;
        Camsim.Scratch.drop_queries base.Rtval.b_data;
        0.
  | "memref.subview" ->
      let bg = use_buffer cenv (opnd 0) in
      let offs = List.map (use_index cenv) (List.tl op.operands) in
      let sizes = Ir.Attr.as_ints (Ir.Op.attr_exn op "sizes") in
      let s = def1 () in
      fun ctx ->
        let base = bg ctx in
        let offsets = List.map (fun g -> g ctx) offs in
        set ctx s (Rtval.Buffer (Rtval.buffer_view base ~offsets ~sizes));
        0.
  (* ---- cam ---- *)
  | "cam.alloc_bank" ->
      let rows = attr_i op "rows" and cols = attr_i op "cols" in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.Handle (Camsim.Simulator.alloc_bank (simx ctx) ~rows ~cols));
        0.
  | "cam.alloc_mat" ->
      let g = use_handle cenv (opnd 0) in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Handle (Camsim.Simulator.alloc_mat (simx ctx) (g ctx)));
        0.
  | "cam.alloc_array" ->
      let g = use_handle cenv (opnd 0) in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.Handle (Camsim.Simulator.alloc_array (simx ctx) (g ctx)));
        0.
  | "cam.alloc_subarray" ->
      let g = use_handle cenv (opnd 0) in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.Handle (Camsim.Simulator.alloc_subarray (simx ctx) (g ctx)));
        0.
  | "cam.write_value" ->
      let hg = use_handle cenv (opnd 0) in
      let dg = use cenv (opnd 1) in
      let og = use_index cenv (opnd 2) in
      fun ctx ->
        let handle = hg ctx in
        let row_offset = og ctx in
        let cost = Ops.cam_write (simx ctx) handle ~row_offset (dg ctx) in
        cost.Camsim.Energy_model.latency
  | "cam.write_range" ->
      let hg = use_handle cenv (opnd 0) in
      let lg = use cenv (opnd 1) in
      let gg = use cenv (opnd 2) in
      let og = use_index cenv (opnd 3) in
      fun ctx ->
        let handle = hg ctx in
        let row_offset = og ctx in
        let cost =
          Ops.cam_write_range (simx ctx) handle ~row_offset (lg ctx) (gg ctx)
        in
        cost.Camsim.Energy_model.latency
  | "cam.search" ->
      let hg = use_handle cenv (opnd 0) in
      let qg = use cenv (opnd 1) in
      let og = use_index cenv (opnd 2) in
      let kind, metric, batch_extra, threshold, rows = search_attrs op in
      fun ctx ->
        let handle = hg ctx in
        let query = qg ctx in
        let row_offset = og ctx in
        let cost =
          Ops.cam_search (simx ctx) handle ~row_offset ~rows ~kind ~metric
            ~batch_extra ~threshold ~stamp:ctx.stamp query
        in
        cost.Camsim.Energy_model.latency
  | "cam.read" ->
      let g = use_handle cenv (opnd 0) in
      if fused then fun ctx ->
        ctx.latched <- Camsim.Simulator.read (simx ctx) (g ctx);
        0.
      else
        let s = def1 () in
        fun ctx ->
          set ctx s
            (Rtval.Buffer
               (Rtval.buffer_of_rows
                  (Camsim.Simulator.read (simx ctx) (g ctx))));
          0.
  | "cam.merge_partial" ->
      let dg = use_buffer cenv (opnd 0) in
      let charge ctx (dst : Rtval.buffer) =
        Camsim.Scratch.drop_queries dst.b_data;
        let cost =
          Camsim.Simulator.merge (simx ctx) ~elems:(Rtval.numel dst.b_shape)
        in
        cost.Camsim.Energy_model.latency
      in
      if fused then fun ctx ->
        let dst = dg ctx in
        Ops.rows_accumulate "cam.merge_partial" dst ctx.latched;
        charge ctx dst
      else
        let pg = use_buffer cenv (opnd 1) in
        fun ctx ->
          let dst = dg ctx in
          let part = pg ctx in
          Ops.buffer_accumulate "cam.merge_partial" dst part;
          charge ctx dst
  | "cam.select_best" ->
      let dg =
        if fused then fun ctx -> ctx.latched
        else
          let g = use cenv (opnd 0) in
          fun ctx -> Rtval.to_rows (g ctx)
      in
      let k = attr_i op "k" and largest = attr_b op "largest" in
      let s0 = def cenv (Ir.Op.result_n op 0) in
      let s1 = def cenv (Ir.Op.result_n op 1) in
      fun ctx ->
        let dist = dg ctx in
        let (values, indices), cost =
          Camsim.Simulator.select_best (simx ctx) ~dist ~k ~largest
        in
        set ctx s0 (Rtval.Buffer (Rtval.buffer_of_rows values));
        set ctx s1
          (Rtval.Buffer
             (Rtval.buffer_of_rows (Array.map (Array.map float_of_int) indices)));
        cost.Camsim.Energy_model.latency
  (* ---- crossbar ---- *)
  | "crossbar.alloc_tile" ->
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Xtile (Xbar.alloc_tile (xsimx ctx)));
        0.
  | "crossbar.write" ->
      let tg = use cenv (opnd 0) in
      let bg = use cenv (opnd 1) in
      fun ctx ->
        let tile = Rtval.as_xtile (tg ctx) in
        let block = Rtval.to_rows (bg ctx) in
        let cost = Xbar.write (xsimx ctx) tile block in
        cost.Xbar.latency
  | "crossbar.gemv" ->
      let tg = use cenv (opnd 0) in
      let ig = use cenv (opnd 1) in
      let s = def1 () in
      fun ctx ->
        let tile = Rtval.as_xtile (tg ctx) in
        let inputs = Rtval.to_rows (ig ctx) in
        let out, cost = Xbar.gemv (xsimx ctx) tile inputs in
        set ctx s (Rtval.Buffer (Rtval.buffer_of_rows out));
        cost.Xbar.latency
  | "crossbar.accumulate" ->
      let dg = use_buffer cenv (opnd 0) in
      let pg = use_buffer cenv (opnd 1) in
      fun ctx ->
        let dst = dg ctx in
        let part = pg ctx in
        Ops.buffer_accumulate "crossbar.accumulate" dst part;
        Camsim.Scratch.drop_queries dst.Rtval.b_data;
        0.
  | name -> fun _ -> Ops.fail "unsupported op %s" name

(* scf.for / scf.parallel on the generic closures *)
and compile_loop cenv (op : Ir.Op.t) : cop =
  let opnd i = Ir.Op.operand op i in
  let parallel = String.equal op.op_name "scf.parallel" in
  let lbg = use_index cenv (opnd 0) in
  let ubg = use_index cenv (opnd 1) in
  let stepg = use_index cenv (opnd 2) in
  match op.regions with
  | [ r ] ->
      let rg = compile_region cenv r in
      fun ctx ->
        let lb = lbg ctx in
        let ub = ubg ctx in
        let step = stepg ctx in
        if step <= 0 then Ops.fail "loop: non-positive step";
        let total = ref 0. in
        let i = ref lb in
        while !i < ub do
          let fl, lat = run_creg ctx rg [| Rtval.Index !i |] in
          check_loop_flow fl;
          if parallel then total := Float.max !total lat
          else total := !total +. lat;
          i := !i + step
        done;
        !total
  | _ ->
      fun ctx ->
        let _ = lbg ctx in
        let _ = ubg ctx in
        let step = stepg ctx in
        if step <= 0 then Ops.fail "loop: non-positive step";
        Ops.fail "loop region"

and compile_region cenv (r : Ir.Op.region) : creg =
  match r.Ir.Op.blocks with
  | [ blk ] -> Cblk (compile_block cenv blk)
  | _ -> Cbad "only single-block regions are executable"

and compile_block cenv (blk : Ir.Op.block) : cblk =
  let arg_slots =
    Array.of_list (List.map (def cenv) blk.Ir.Op.block_args)
  in
  let body_ops, term_op = split_terminator blk in
  let ops = Array.of_list body_ops in
  let fused = fusion_marks cenv ops in
  let body = Array.mapi (fun i op -> compile_op ~fused:fused.(i) cenv op) ops in
  let dials =
    Array.of_list
      (List.map (fun (o : Ir.Op.t) -> Ops.dialect_index o.op_name) body_ops)
  in
  let term =
    match term_op with
    | None -> Tfall
    | Some top ->
        let gs = Array.of_list (List.map (use cenv) top.operands) in
        let d = Ops.dialect_index top.op_name in
        if String.equal top.op_name "func.return" then Treturn (gs, d)
        else Tyield (gs, d)
  in
  { arg_slots; body; dials; term }

(* ---------- whole functions, memoized ---------------------------------- *)

type cfunc = {
  cf_fn : Ir.Func_ir.func; (* physical identity for cache validation *)
  cf_n_ops : int; (* cheap guard against in-place IR mutation *)
  cf_nslots : int;
  cf_args : int array;
  cf_body : cblk;
}

let block_num_ops (b : Ir.Op.block) =
  List.fold_left (fun acc o -> acc + Ir.Op.num_ops o) 0 b.Ir.Op.body

let compile_func (fn : Ir.Func_ir.func) : cfunc =
  let cenv =
    {
      tbl = Hashtbl.create 256;
      n_slots = 0;
      fn;
      fusable = fusable_reads fn;
      sites = lazy (def_sites fn);
    }
  in
  let cf_args = Array.of_list (List.map (def cenv) fn.Ir.Func_ir.fn_args) in
  let cf_body = compile_block cenv fn.Ir.Func_ir.fn_body in
  (* a plan's fallback keeps [cenv]; it need not keep these tables *)
  cenv.sites <- lazy (def_sites fn);
  {
    cf_fn = fn;
    cf_n_ops = block_num_ops fn.Ir.Func_ir.fn_body;
    cf_nslots = cenv.n_slots;
    cf_args;
    cf_body;
  }

(* Per-domain memo keyed on the first body op's uid (process-unique, so
   no cross-module collisions); validated against the function's
   physical identity and total op count. Repeated Machine.run calls on
   the same compiled module (autotune, benchmarks) amortize compilation
   to a hashtable hit. *)
let memo_limit = 64

let memo : (int, cfunc) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let compiled_of (fn : Ir.Func_ir.func) =
  match fn.Ir.Func_ir.fn_body.Ir.Op.body with
  | [] -> compile_func fn
  | first :: _ -> (
      let key = first.Ir.Op.uid in
      let tbl = Domain.DLS.get memo in
      match Hashtbl.find_opt tbl key with
      | Some cf
        when cf.cf_fn == fn
             && cf.cf_n_ops = block_num_ops fn.Ir.Func_ir.fn_body ->
          cf
      | _ ->
          let cf = compile_func fn in
          if Hashtbl.length tbl >= memo_limit then Hashtbl.reset tbl;
          Hashtbl.replace tbl key cf;
          cf)

let run_fn ?sim ?xsim ?pool (fn : Ir.Func_ir.func)
    (args : Rtval.t list) : Ops.outcome =
  let cf = compiled_of fn in
  let ctx =
    {
      slots = Array.make (max 1 cf.cf_nslots) unbound;
      sim;
      xsim;
      stamp = Camsim.Scratch.fresh_stamp ();
      pool;
      counts = Ops.fresh_counts ();
      latched = [||];
    }
  in
  List.iteri (fun i v -> set ctx cf.cf_args.(i) v) args;
  match run_cblk ctx cf.cf_body [||] with
  | Creturn results, latency ->
      { Ops.results; latency; ops_executed = Ops.counts_list ctx.counts }
  | (Cyield _ | Cfall), _ ->
      Ops.fail "@%s finished without returning" fn.Ir.Func_ir.fn_name
