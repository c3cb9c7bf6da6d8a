let cim_pipeline =
  [ Torch_to_cim.pass; Cim_fusion.pass; Canonicalize.pass ]

let by_name spec name =
  match name with
  | "torch-to-cim" -> Some Torch_to_cim.pass
  | "cim-fuse-ops" -> Some Cim_fusion.pass
  | "cim-fuse-blocks" -> Some Cim_fusion.fuse_blocks
  | "cim-fuse-similarity" -> Some Cim_fusion.fuse_similarity
  | "cim-partition" -> Some (Cim_partition.pass spec)
  | "cam-map" -> Some (Cam_map.pass spec)
  | "cam-power" -> Some Cam_opt.power
  | "canonicalize" -> Some Canonicalize.pass
  | "dce" -> Some Canonicalize.dce
  | "cse" -> Some Canonicalize.cse
  | "fold-constants" -> Some Canonicalize.fold_constants
  | "cim-host-fallback" -> Some Host_fallback.pass
  | "cim-to-loops" -> Some Cim_to_loops.pass
  | _ -> None

let names =
  [
    "torch-to-cim";
    "cim-fuse-ops";
    "cim-fuse-blocks";
    "cim-fuse-similarity";
    "cim-partition";
    "cam-map";
    "cam-power";
    "canonicalize";
    "dce";
    "cse";
    "fold-constants";
    "cim-host-fallback";
    "cim-to-loops";
  ]
