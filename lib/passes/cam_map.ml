let pass_name = "cam-map"

let fail fmt = Printf.ksprintf (fun s -> Ir.Pass.fail ~pass:pass_name s) fmt

type mapping = { tiles : int; slots : int; banks : int; batches : int }

let ceil_div a b = (a + b - 1) / b

let mapping_of (spec : Archspec.Spec.t) ~row_chunks ~col_chunks ~batches =
  let tiles = row_chunks * col_chunks in
  let slots = ceil_div tiles batches in
  let banks = ceil_div slots (Archspec.Spec.subarrays_per_bank spec) in
  (match spec.max_banks with
  | Some b when banks > b ->
      fail "mapping needs %d banks but the spec allows only %d" banks b
  | _ -> ());
  { tiles; slots; banks; batches }

type info = {
  q : int;
  n : int;
  d : int;
  tile_rows : int;
  col_chunks : int;
  metric : Dialects.Cam.search_metric;
  select : [ `Topk of int * bool | `Scores ];
  map : mapping;
}

let metric_of_cim (spec : Archspec.Spec.t) = function
  | Dialects.Cim.Dot | Dialects.Cim.Cosine | Dialects.Cim.Hamming ->
      Dialects.Cam.Hamming
  | Dialects.Cim.Euclidean -> (
      match spec.cam_kind with
      | Mcam | Acam -> Dialects.Cam.Euclidean
      | Tcam | Bcam ->
          fail
            "euclidean similarity requires an MCAM or ACAM device; the \
             spec selects a %s"
            (Archspec.Spec.cam_kind_to_string spec.cam_kind))

(* Larger dot/cosine similarity corresponds to a smaller CAM distance,
   so the selection direction flips for those metrics. *)
let select_largest cim_metric ~largest =
  match cim_metric with
  | Dialects.Cim.Dot | Dialects.Cim.Cosine -> not largest
  | Dialects.Cim.Euclidean | Dialects.Cim.Hamming -> largest

let mode (m : Archspec.Spec.access_mode) =
  match m with Sequential -> `Sequential | Parallel -> `Parallel

(* Emit the loop nest of Figure 6. *)
let emit_body (spec : Archspec.Spec.t) info b ~query ~stored =
  let s_per_a = spec.subarrays_per_array in
  let a_per_m = spec.arrays_per_mat in
  let m_per_b = spec.mats_per_bank in
  let dist =
    Dialects.Memref.alloc b [ info.q; info.n ] Ir.Types.F32
  in
  let c0 = Dialects.Arith.const_index b 0 in
  let c1 = Dialects.Arith.const_index b 1 in
  let c_banks = Dialects.Arith.const_index b info.map.banks in
  let c_mats = Dialects.Arith.const_index b m_per_b in
  let c_arrays = Dialects.Arith.const_index b a_per_m in
  let c_subs = Dialects.Arith.const_index b s_per_a in
  let c_batches = Dialects.Arith.const_index b info.map.batches in
  let c_slots = Dialects.Arith.const_index b info.map.slots in
  let c_tiles = Dialects.Arith.const_index b info.map.tiles in
  let c_col_chunks = Dialects.Arith.const_index b info.col_chunks in
  let c_tile_rows = Dialects.Arith.const_index b info.tile_rows in
  let c_cols = Dialects.Arith.const_index b spec.cols in
  let batch_extra = info.map.batches > 1 in
  Dialects.Scf.loop_of_mode (mode spec.bank_mode) b ~lb:c0 ~ub:c_banks
    ~step:c1 (fun b bank_iv ->
      let bank = Dialects.Cam.alloc_bank b ~rows:spec.rows ~cols:spec.cols in
      Dialects.Scf.loop_of_mode (mode spec.mat_mode) b ~lb:c0 ~ub:c_mats
        ~step:c1 (fun b mat_iv ->
          (* slot id of the first subarray under this mat *)
          let mat_lin =
            Dialects.Arith.addi b
              (Dialects.Arith.muli b bank_iv c_mats)
              mat_iv
          in
          let mat_base =
            Dialects.Arith.muli b
              (Dialects.Arith.muli b mat_lin c_arrays)
              c_subs
          in
          let mat_used = Dialects.Arith.cmpi b Dialects.Arith.Lt mat_base c_slots in
          Dialects.Scf.if_ b mat_used (fun b ->
              let mat = Dialects.Cam.alloc_mat b bank in
              Dialects.Scf.loop_of_mode (mode spec.array_mode) b ~lb:c0
                ~ub:c_arrays ~step:c1 (fun b arr_iv ->
                  let arr_lin =
                    Dialects.Arith.addi b
                      (Dialects.Arith.muli b mat_lin c_arrays)
                      arr_iv
                  in
                  let arr_base = Dialects.Arith.muli b arr_lin c_subs in
                  let arr_used =
                    Dialects.Arith.cmpi b Dialects.Arith.Lt arr_base c_slots
                  in
                  Dialects.Scf.if_ b arr_used (fun b ->
                      let arr = Dialects.Cam.alloc_array b mat in
                      Dialects.Scf.loop_of_mode (mode spec.subarray_mode) b
                        ~lb:c0 ~ub:c_subs ~step:c1 (fun b sub_iv ->
                          let slot =
                            Dialects.Arith.addi b arr_base sub_iv
                          in
                          let sub_used =
                            Dialects.Arith.cmpi b Dialects.Arith.Lt slot
                              c_slots
                          in
                          Dialects.Scf.if_ b sub_used (fun b ->
                              let sub = Dialects.Cam.alloc_subarray b arr in
                              Dialects.Scf.for_ b ~lb:c0 ~ub:c_batches
                                ~step:c1 (fun b bt_iv ->
                                  let tile =
                                    Dialects.Arith.addi b
                                      (Dialects.Arith.muli b slot c_batches)
                                      bt_iv
                                  in
                                  let tile_ok =
                                    Dialects.Arith.cmpi b Dialects.Arith.Lt
                                      tile c_tiles
                                  in
                                  Dialects.Scf.if_ b tile_ok (fun b ->
                                      let rc =
                                        Dialects.Arith.divi b tile
                                          c_col_chunks
                                      in
                                      let cc =
                                        Dialects.Arith.remi b tile
                                          c_col_chunks
                                      in
                                      let row_off =
                                        Dialects.Arith.muli b rc c_tile_rows
                                      in
                                      let col_off =
                                        Dialects.Arith.muli b cc c_cols
                                      in
                                      let s_sl =
                                        Dialects.Memref.subview b stored
                                          ~offsets:[ row_off; col_off ]
                                          ~sizes:[ info.tile_rows; spec.cols ]
                                      in
                                      let q_sl =
                                        Dialects.Memref.subview b query
                                          ~offsets:[ c0; col_off ]
                                          ~sizes:[ info.q; spec.cols ]
                                      in
                                      let bt_row =
                                        Dialects.Arith.muli b bt_iv
                                          c_tile_rows
                                      in
                                      Dialects.Cam.write_value b sub s_sl
                                        ~row_offset:bt_row;
                                      Dialects.Cam.search b sub q_sl
                                        ~kind:Dialects.Cam.Best
                                        ~metric:info.metric
                                        ~row_offset:bt_row
                                        ~rows:info.tile_rows ~batch_extra
                                        ();
                                      let part =
                                        Dialects.Cam.read b sub
                                          ~queries:info.q
                                          ~rows:info.tile_rows
                                      in
                                      let dst =
                                        Dialects.Memref.subview b dist
                                          ~offsets:[ c0; row_off ]
                                          ~sizes:[ info.q; info.tile_rows ]
                                      in
                                      Dialects.Cam.merge_partial b ~dst
                                        ~part)))))))));
  dist

let rewrite_func ?q (spec : Archspec.Spec.t) (fn : Ir.Func_ir.func) :
    Ir.Func_ir.func =
  (* Find the partitioned similarity inside the acquire/execute/release
     pattern; functions without one are left untouched. *)
  let part =
    List.concat_map
      (fun (op : Ir.Op.t) ->
        if String.equal op.op_name Dialects.Cim.execute_name then
          List.filter
            (fun (o : Ir.Op.t) ->
              String.equal o.op_name
                Dialects.Cim.partitioned_similarity_name)
            (Ir.Op.body_ops op)
        else [])
      fn.fn_body.body
  in
  match part with
  | [] -> fn
  | _ :: _ :: _ -> fail "multiple partitioned similarities per function"
  | [ p ] ->
      let attr_i key = Ir.Attr.as_int (Ir.Op.attr_exn p key) in
      let cim_metric =
        Dialects.Cim.metric_of_attr (Ir.Op.attr_exn p "metric")
      in
      let select =
        match Ir.Attr.as_sym (Ir.Op.attr_exn p "output") with
        | "topk" ->
            `Topk
              ( attr_i "k",
                select_largest cim_metric
                  ~largest:(Ir.Attr.as_bool (Ir.Op.attr_exn p "largest")) )
        | _ -> `Scores
      in
      let map =
        mapping_of spec ~row_chunks:(attr_i "row_chunks")
          ~col_chunks:(attr_i "col_chunks") ~batches:(attr_i "batches")
      in
      if attr_i "rows" * map.batches > spec.rows then
        fail "tile rows times batches exceed the subarray rows";
      let info =
        {
          q = Option.value q ~default:(attr_i "q");
          n = attr_i "n";
          d = attr_i "d";
          tile_rows = attr_i "rows";
          col_chunks = attr_i "col_chunks";
          metric = metric_of_cim spec cim_metric;
          select;
          map;
        }
      in
      (* Bufferization: the query/stored tensor arguments become memref
         arguments of a fresh function. A batched-KNN query reaches the
         kernel through a cim.reshape squeeze — trace it back to the
         underlying argument; its buffer takes the squeezed [q,d] shape. *)
      let rec underlying (v : Ir.Value.t) =
        match Ir.Walk.find_def fn v with
        | Some def
          when String.equal def.op_name Dialects.Cim.reshape_name ->
            underlying (Ir.Op.operand def 0)
        | _ -> v
      in
      let old_query = underlying (Ir.Op.operand p 0) in
      let old_stored = underlying (Ir.Op.operand p 1) in
      let query =
        Ir.Value.fresh (Ir.Types.memref [ info.q; info.d ] Ir.Types.F32)
      in
      let stored =
        Ir.Value.fresh (Ir.Types.memref [ info.n; info.d ] Ir.Types.F32)
      in
      let args =
        List.map
          (fun (a : Ir.Value.t) ->
            if Ir.Value.equal a old_query then query
            else if Ir.Value.equal a old_stored then stored
            else a)
          fn.fn_args
      in
      let b = Ir.Builder.create () in
      let dist = emit_body spec info b ~query ~stored in
      let results =
        match info.select with
        | `Topk (k, largest) ->
            let values, indices = Dialects.Cam.select_best b dist ~k ~largest in
            [ values; indices ]
        | `Scores -> [ dist ]
      in
      Ir.Builder.op0 b ~operands:results Dialects.Torch.return_name;
      Ir.Func_ir.func fn.fn_name ~args
        ~ret:(List.map (fun (v : Ir.Value.t) -> v.ty) results)
        (Ir.Builder.finish b)

let pass ?q spec =
  Ir.Pass.make pass_name (fun m ->
      Ir.Func_ir.map_funcs (rewrite_func ?q spec) m)
