type op_info = {
  summary : string;
  verify : Op.t -> (unit, string) result;
}

let dialects : (string, unit) Hashtbl.t = Hashtbl.create 8
let ops : (string, op_info) Hashtbl.t = Hashtbl.create 64

let register_op ~dialect ~mnemonic ?(summary = "")
    ?(verify = fun _ -> Ok ()) () =
  Hashtbl.replace dialects dialect ();
  Hashtbl.replace ops (dialect ^ "." ^ mnemonic) { summary; verify }

let dialect_registered name = Hashtbl.mem dialects name
let lookup name = Hashtbl.find_opt ops name

let registered_ops () =
  Hashtbl.fold (fun k _ acc -> k :: acc) ops [] |> List.sort compare
