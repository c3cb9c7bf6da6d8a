let pass_name = "cim-partition"

let batches_for (spec : Archspec.Spec.t) ~stored_rows =
  match spec.optimization with
  | Density | Power_density when stored_rows < spec.rows ->
      max 1 (spec.rows / stored_rows)
  | Density | Power_density | Base | Power -> 1

type params = {
  q : int;
  n : int;
  d : int;
  tile_rows : int;
  cols : int;
  row_chunks : int;
  col_chunks : int;
  batches : int;
}

let plan (spec : Archspec.Spec.t) ~q ~n ~d =
  if d mod spec.cols <> 0 then
    Ir.Pass.fail ~pass:pass_name
      (Printf.sprintf
         "data dimension %d is not divisible by the subarray columns %d" d
         spec.cols);
  let tile_rows = min n spec.rows in
  if n > spec.rows && n mod spec.rows <> 0 then
    Ir.Pass.fail ~pass:pass_name
      (Printf.sprintf
         "stored rows %d are not divisible by the subarray rows %d" n
         spec.rows);
  {
    q;
    n;
    d;
    tile_rows;
    cols = spec.cols;
    row_chunks = n / tile_rows;
    col_chunks = d / spec.cols;
    batches = batches_for spec ~stored_rows:n;
  }

(* The expanded tile program of Figure 5d is only built on demand (for
   printing and the cim-level software run), and only up to this many
   tiles; larger tilings keep the compact form everywhere. *)
let max_expanded_tiles = 4096

let expandable p = p.row_chunks * p.col_chunks <= max_expanded_tiles

(* The expanded tile program. *)
let expanded_region p ~query ~stored ~metric ~select =
  let b = Ir.Builder.create () in
  let global = ref (Dialects.Cim.zeros b [ p.q; p.n ]) in
  for rc = 0 to p.row_chunks - 1 do
    let acc = ref None in
    for cc = 0 to p.col_chunks - 1 do
      let q_sl =
        Dialects.Cim.slice b query
          ~offsets:[ 0; cc * p.cols ]
          ~sizes:[ p.q; p.cols ]
      in
      let s_sl =
        Dialects.Cim.slice b stored
          ~offsets:[ rc * p.tile_rows; cc * p.cols ]
          ~sizes:[ p.tile_rows; p.cols ]
      in
      let part = Dialects.Cim.similarity_partial b ~query:q_sl ~stored:s_sl ~metric in
      acc :=
        Some
          (match !acc with
          | None -> part
          | Some a -> Dialects.Cim.merge_partial_h b a part)
    done;
    match !acc with
    | Some a ->
        global :=
          Dialects.Cim.merge_partial_v b !global a
            ~offset:(rc * p.tile_rows)
    | None -> ()
  done;
  let results =
    match select with
    | `Topk (k, largest) ->
        let values, indices = Dialects.Cim.select_best b !global ~k ~largest in
        [ values; indices ]
    | `Scores -> [ !global ]
  in
  Dialects.Cim.yield b results;
  Ir.Op.region (Ir.Builder.finish b)

(* The single-op form every compile emits: the fused op itself, on
   fresh results; cam-map reads only the wrapper's attributes. *)
let compact_region (sim : Ir.Op.t) =
  let b = Ir.Builder.create () in
  Dialects.Cim.yield b
    (Ir.Builder.op b ~operands:sim.operands ~attrs:sim.attrs sim.op_name
       (List.map (fun (v : Ir.Value.t) -> v.ty) sim.results));
  Ir.Op.region (Ir.Builder.finish b)

let rewrite spec (exec : Ir.Op.t) =
  let body = Ir.Op.body_ops exec in
  let sim =
    List.find_opt
      (fun (o : Ir.Op.t) ->
        String.equal o.op_name Dialects.Cim.similarity_name
        || String.equal o.op_name Dialects.Cim.similarity_scores_name)
      body
  in
  match sim with
  | None -> ()
  | Some sim ->
      let query = Ir.Op.operand sim 0 and stored = Ir.Op.operand sim 1 in
      let q, d =
        match Ir.Types.shape query.Ir.Value.ty with
        | [ q; d ] -> (q, d)
        | _ -> Ir.Pass.fail ~pass:pass_name "query must be rank-2"
      in
      let n =
        match Ir.Types.shape stored.Ir.Value.ty with
        | [ n; _ ] -> n
        | _ -> Ir.Pass.fail ~pass:pass_name "stored must be rank-2"
      in
      let p = plan spec ~q ~n ~d in
      let metric = Dialects.Cim.metric_of_attr (Ir.Op.attr_exn sim "metric") in
      let select =
        if String.equal sim.op_name Dialects.Cim.similarity_name then
          `Topk
            ( Ir.Attr.as_int (Ir.Op.attr_exn sim "k"),
              Ir.Attr.as_bool (Ir.Op.attr_exn sim "largest") )
        else `Scores
      in
      let region = compact_region sim in
      let attrs =
        [
          ("q", Ir.Attr.Int p.q);
          ("n", Ir.Attr.Int p.n);
          ("d", Ir.Attr.Int p.d);
          ("rows", Ir.Attr.Int p.tile_rows);
          ("cols", Ir.Attr.Int p.cols);
          ("row_chunks", Ir.Attr.Int p.row_chunks);
          ("col_chunks", Ir.Attr.Int p.col_chunks);
          ("batches", Ir.Attr.Int p.batches);
          ("metric", Dialects.Cim.metric_to_attr metric);
          ( "output",
            Ir.Attr.Sym
              (match select with `Topk _ -> "topk" | `Scores -> "scores") );
        ]
        @
        match select with
        | `Topk (k, largest) ->
            [ ("k", Ir.Attr.Int k); ("largest", Ir.Attr.Bool largest) ]
        | `Scores -> [ ("k", Ir.Attr.Int n) ]
      in
      let wrapper =
        Ir.Op.create ~operands:[ query; stored ] ~results:sim.results ~attrs
          ~regions:[ region ]
          Dialects.Cim.partitioned_similarity_name
      in
      let blk = Ir.Op.entry_block exec in
      blk.body <-
        List.map (fun (o : Ir.Op.t) -> if o == sim then wrapper else o) blk.body

let pass spec =
  Ir.Pass.make pass_name (fun m ->
      Ir.Walk.iter_module
        (fun op ->
          if String.equal op.Ir.Op.op_name Dialects.Cim.execute_name then
            rewrite spec op)
        m;
      m)

(* Rebuild a wrapper's region as the expanded tile program. *)
let expand_wrapper (w : Ir.Op.t) =
  let ai key = Ir.Attr.as_int (Ir.Op.attr_exn w key) in
  let p =
    {
      q = ai "q";
      n = ai "n";
      d = ai "d";
      tile_rows = ai "rows";
      cols = ai "cols";
      row_chunks = ai "row_chunks";
      col_chunks = ai "col_chunks";
      batches = ai "batches";
    }
  in
  if expandable p then begin
    let select =
      match Ir.Attr.as_sym (Ir.Op.attr_exn w "output") with
      | "topk" ->
          `Topk (ai "k", Ir.Attr.as_bool (Ir.Op.attr_exn w "largest"))
      | _ -> `Scores
    in
    w.regions <-
      [
        expanded_region p ~query:(Ir.Op.operand w 0)
          ~stored:(Ir.Op.operand w 1)
          ~metric:(Dialects.Cim.metric_of_attr (Ir.Op.attr_exn w "metric"))
          ~select;
      ]
  end

let expand m =
  Ir.Walk.iter_module
    (fun op ->
      if String.equal op.Ir.Op.op_name Dialects.Cim.partitioned_similarity_name
      then expand_wrapper op)
    m;
  m

let expanded_pass spec =
  Ir.Pass.make pass_name (fun m -> expand ((pass spec).run m))
