type objective = Min_latency | Min_energy | Min_power | Min_edp | Min_area

let objective_to_string = function
  | Min_latency -> "latency"
  | Min_energy -> "energy"
  | Min_power -> "power"
  | Min_edp -> "edp"
  | Min_area -> "area"

type candidate = {
  spec : Archspec.Spec.t;
  measurement : Dse.measurement;
  area_mm2 : float;
}

let value objective c =
  match objective with
  | Min_latency -> c.measurement.latency
  | Min_energy -> c.measurement.energy
  | Min_power -> c.measurement.power
  | Min_edp -> c.measurement.edp
  | Min_area -> c.area_mm2

let default_sides = [ 16; 32; 64; 128; 256 ]

let default_opts =
  Archspec.Spec.[ Base; Power; Density; Power_density ]

let default_placements = [ Passes.Placement.[ Cam; Cam ] ]

let evaluate_hdc ?(config = Driver.Run_config.default)
    ?(sides = default_sides) ?(optimizations = default_opts)
    ?(placements = default_placements) ~data () =
  (* The area model needs a concrete technology even when the config
     leaves the simulator on its default. *)
  let area_tech =
    Option.value config.Driver.Run_config.tech
      ~default:Camsim.Tech.fefet_45nm
  in
  (* Build the full grid first, then evaluate candidates across the
     ambient domain pool — each gets its own compile and simulator, and
     map_list keeps the sides-outer / optimizations-inner /
     placements-innermost order. *)
  let grid =
    List.concat_map
      (fun side ->
        List.concat_map
          (fun opt -> List.map (fun p -> (side, opt, p)) placements)
          optimizations)
      sides
  in
  Parallel.map_list
    (fun (side, opt, placement) ->
      let spec = Archspec.Spec.square side opt in
      let measurement =
        match placement with
        | Passes.Placement.[ Cam; Cam ] ->
            (* The homogeneous reference keeps the plain DSE path (and
               its unsuffixed config name). *)
            Dse.hdc ~config ~spec ~data ()
        | _ ->
            let config =
              Driver.Run_config.with_placement (`Fixed placement) config
            in
            let q = Array.length data.Workloads.Hdc.queries in
            let classes = Array.length data.stored in
            let dims = Array.length data.stored.(0) in
            let compiled =
              Driver.compile ~spec
                (Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k:1)
            in
            let pr =
              Hetero.run_placed ~config compiled ~queries:data.queries
                ~stored:data.stored
            in
            Dse.placed_measurement spec pr
              ~accuracy:(Dse.top1_accuracy pr.pr_indices data.query_labels)
      in
      {
        spec;
        measurement;
        area_mm2 =
          Camsim.Area_model.chip_area area_tech ~spec
            ~banks:measurement.banks;
      })
    grid

let best objective = function
  | [] -> invalid_arg "Autotune.best: no candidates"
  | c :: rest ->
      List.fold_left
        (fun acc c ->
          if value objective c < value objective acc then c else acc)
        c rest

let pareto f g candidates =
  let dominates a b =
    f a <= f b && g a <= g b && (f a < f b || g a < g b)
  in
  candidates
  |> List.filter (fun c ->
         not (List.exists (fun other -> dominates other c) candidates))
  |> List.sort (fun a b -> compare (f a) (f b))
