(* The crossbar device path: simulator, mapping pass, end-to-end GEMM,
   and the CAM-vs-crossbar search comparison. *)

let xspec = { Xbar.default_spec with tile_rows = 16; tile_cols = 16 }

(* ---- device model ------------------------------------------------------ *)

let test_gemv_functional () =
  let x = Xbar.create xspec in
  let tile = Xbar.alloc_tile x in
  let _ = Xbar.write x tile [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let out, cost = Xbar.gemv x tile [| [| 1.; 1. |]; [| 2.; 0. |] |] in
  Alcotest.(check Tutil.rows_testable) "product"
    [| [| 4.; 6. |]; [| 2.; 4. |] |]
    out;
  Alcotest.(check bool) "cost positive" true
    (cost.latency > 0. && cost.energy > 0.)

let test_gemv_cost_scales_with_inputs () =
  let run m =
    let x = Xbar.create xspec in
    let tile = Xbar.alloc_tile x in
    let _ = Xbar.write x tile (Array.make_matrix 16 16 1.) in
    let _, cost = Xbar.gemv x tile (Array.make_matrix m 16 1.) in
    cost.latency
  in
  Tutil.check_float ~eps:1e-12 "latency linear in inputs" (4. *. run 1)
    (run 4)

let test_device_errors () =
  let x = Xbar.create { xspec with max_tiles = Some 1 } in
  let tile = Xbar.alloc_tile x in
  Alcotest.(check bool) "tile budget" true
    (match Xbar.alloc_tile x with
    | _ -> false
    | exception Xbar.Error _ -> true);
  Alcotest.(check bool) "unprogrammed gemv" true
    (match Xbar.gemv x tile [| [| 1. |] |] with
    | _ -> false
    | exception Xbar.Error _ -> true);
  let _ = Xbar.write x tile [| [| 1. |] |] in
  Alcotest.(check bool) "wrong input width" true
    (match Xbar.gemv x tile [| [| 1.; 2. |] |] with
    | _ -> false
    | exception Xbar.Error _ -> true);
  Alcotest.(check bool) "oversized block" true
    (match Xbar.write x tile (Array.make_matrix 20 20 1.) with
    | _ -> false
    | exception Xbar.Error _ -> true)

(* ---- compiled path ------------------------------------------------------ *)

let compiled =
  lazy
    (C4cam.Driver.compile_crossbar ~xspec
       (Workloads.Kernels.matmul ~m:5 ~k:32 ~n:48))

let test_compile_shapes () =
  let c = Lazy.force compiled in
  Alcotest.(check (list int)) "m k n" [ 5; 32; 48 ]
    [ c.x_m; c.x_k; c.x_n ];
  (* mapped IR contains the crossbar ops and two parallel loops *)
  let fn = Ir.Func_ir.find_func_exn c.x_ir c.x_fn in
  let count name =
    List.length
      (Ir.Walk.collect (fun o -> String.equal o.Ir.Op.op_name name) fn)
  in
  Alcotest.(check int) "one alloc per tile position" 1
    (count "crossbar.alloc_tile");
  Alcotest.(check int) "two parallel loops" 2 (count "scf.parallel")

let test_crossbar_matches_software_matmul () =
  let c = Lazy.force compiled in
  let rng = Rng.create 5 in
  let mk r cdim = Array.init r (fun _ -> Array.init cdim (fun _ -> Rng.float rng)) in
  let inputs = mk 5 32 and weights = mk 32 48 in
  let r = C4cam.Driver.run_crossbar c ~inputs ~weights in
  (* software reference *)
  let expect = Array.make_matrix 5 48 0. in
  for i = 0 to 4 do
    for l = 0 to 31 do
      for j = 0 to 47 do
        expect.(i).(j) <- expect.(i).(j) +. (inputs.(i).(l) *. weights.(l).(j))
      done
    done
  done;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v -> Tutil.check_float ~eps:1e-9 "product entry" expect.(i).(j) v)
        row)
    r.product;
  Alcotest.(check int) "tiles = (32/16)x(48/16)" 6 r.x_stats.x_tiles;
  Alcotest.(check int) "gemv cycles = tiles x m" 30 r.x_stats.x_gemvs;
  Alcotest.(check bool) "energy accounted" true (r.x_energy > 0.)

let test_compile_rejects_non_matmul () =
  Alcotest.(check bool) "similarity kernel rejected" true
    (match
       C4cam.Driver.compile_crossbar ~xspec
         (Workloads.Kernels.hdc_dot ~q:4 ~dims:32 ~classes:4 ~k:1)
     with
    | _ -> false
    | exception C4cam.Driver.Compile_error _ -> true)

let test_divisibility_enforced () =
  Alcotest.(check bool) "K must divide" true
    (match
       C4cam.Driver.compile_crossbar ~xspec
         (Workloads.Kernels.matmul ~m:2 ~k:20 ~n:16)
     with
    | _ -> false
    | exception C4cam.Driver.Compile_error _ -> true)

let test_cam_beats_crossbar_for_search () =
  (* The paper's core claim, measured: for a similarity search, the CAM
     pipeline beats matmul-on-crossbar followed by host top-k. *)
  let dims = 1024 and classes = 16 and q = 8 in
  let data =
    Workloads.Hdc.synthetic ~seed:9 ~dims ~n_classes:classes ~n_queries:q
      ~bits:1 ()
  in
  let cam =
    C4cam.Dse.hdc ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base) ~data ()
  in
  let xc =
    C4cam.Driver.compile_crossbar
      ~xspec:{ Xbar.default_spec with tile_rows = 128; tile_cols = 16 }
      (Workloads.Kernels.matmul ~m:q ~k:dims ~n:classes)
  in
  (* weights = transposed prototypes *)
  let weights =
    Array.init dims (fun d ->
        Array.init classes (fun c -> data.stored.(c).(d)))
  in
  let xr = C4cam.Driver.run_crossbar xc ~inputs:data.queries ~weights in
  (* the crossbar still computes the right scores... *)
  Array.iteri
    (fun i row ->
      let best = Workloads.Distance.argmax row in
      Alcotest.(check int) "crossbar top-1" data.query_labels.(i) best)
    xr.product;
  (* ...but the CAM does the search much faster at comparable energy
     (and decisively wins on energy-delay product) *)
  Alcotest.(check bool)
    (Printf.sprintf "CAM much faster (%.3g vs %.3g s)" cam.latency
       xr.x_latency)
    true
    (cam.latency < 0.25 *. xr.x_latency);
  Alcotest.(check bool)
    (Printf.sprintf "CAM energy comparable (%.3g vs %.3g J)" cam.energy
       xr.x_energy)
    true
    (cam.energy < 2. *. xr.x_energy);
  Alcotest.(check bool) "CAM wins on EDP" true
    (cam.energy *. cam.latency < 0.2 *. (xr.x_energy *. xr.x_latency))

let () =
  Alcotest.run "crossbar"
    [
      ( "device",
        [
          Alcotest.test_case "gemv functional" `Quick test_gemv_functional;
          Alcotest.test_case "cost scaling" `Quick
            test_gemv_cost_scales_with_inputs;
          Alcotest.test_case "errors" `Quick test_device_errors;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "shapes" `Quick test_compile_shapes;
          Alcotest.test_case "matches software matmul" `Quick
            test_crossbar_matches_software_matmul;
          Alcotest.test_case "rejects non-matmul" `Quick
            test_compile_rejects_non_matmul;
          Alcotest.test_case "divisibility" `Quick test_divisibility_enforced;
          Alcotest.test_case "cam wins at search" `Quick
            test_cam_beats_crossbar_for_search;
        ] );
    ]
