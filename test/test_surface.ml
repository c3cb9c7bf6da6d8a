(* The public surface check: every value a lib/*/*.mli exports must
   have a user outside its own module.

   The exports are the [val]s of each lib/<dir>/<m>.mli, including
   those of nested module signatures. A use is an identifier in any
   .ml/.mli under lib, bin, bench, examples, tools or test, other than
   the module's own pair of files, that is

   - qualified by a path ending in the module's path ([Walk.f],
     [Ir.Walk.f], or [C.f] after [module C = Ir.Walk]), or
   - the bare name inside a local open of the module ([M.(f x)],
     [let open M in f x]), or anywhere in a file that opens or includes
     it (or an alias of it).

   Both sides are read with OCaml's own parser, so comments and string
   literals never count. A file-level open is taken to cover the whole
   file, so the check can miss a dead export but never flags a live
   one.

   An export with no use fails the check unless it is on [allowed]
   below with a one-line reason. The benchmark under perfbench/_src is
   not part of the dune tree, so the values only it calls are listed
   there by name. An allowlist entry that names no export, or an export
   that has a user after all, fails the check as well. *)

(* Values with no user outside their module, kept on purpose, as
   ("Lib.Module.value", "why"): a test hook, a perfbench-only user or a
   deliberate API. *)
let allowed : (string * string) list = []

let read path = In_channel.with_open_bin path In_channel.input_all

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files path
         else if
           Filename.check_suffix name ".ml"
           || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let parse path parser =
  let lexbuf = Lexing.from_string (read path) in
  Lexing.set_filename lexbuf path;
  try parser lexbuf
  with exn ->
    Alcotest.failf "%s: cannot parse: %s" path (Printexc.to_string exn)

(* The module path a wrapped library puts in front of its modules: [Ir]
   for (name ir), nothing for (wrapped false). *)
let library_prefix dir =
  let dune = read (Filename.concat dir "dune") in
  let after key =
    let n = String.length key in
    let rec at i =
      if i + n > String.length dune then None
      else if String.sub dune i n = key then Some (i + n)
      else at (i + 1)
    in
    at 0
  in
  match after "(name " with
  | Some start when after "(wrapped false)" = None ->
      let stop = String.index_from dune start ')' in
      [ String.capitalize_ascii (String.sub dune start (stop - start)) ]
  | _ -> []

type export = { path : string list; name : string; file : string }

let exports_of ~prefix mli =
  let modname =
    String.capitalize_ascii Filename.(remove_extension (basename mli))
  in
  let rec items path sg =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value v -> [ { path; name = v.pval_name.txt; file = mli } ]
        | Psig_module
            { pmd_name = { txt = Some sub; _ };
              pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ } ->
            items (path @ [ sub ]) sg
        | _ -> [])
      sg
  in
  (* a library of one module of its own name is that module *)
  let prefix = if prefix = [ modname ] then [] else prefix in
  items (prefix @ [ modname ]) (parse mli Parse.interface)

let exports () =
  files "../lib"
  |> List.filter (fun f -> Filename.check_suffix f ".mli")
  |> List.concat_map (fun mli ->
         exports_of ~prefix:(library_prefix (Filename.dirname mli)) mli)

(* What one file refers to: qualified value paths, bare value names with
   the local opens around them, and the module paths the file opens;
   aliases are expanded. *)
type uses = {
  qualified : (string list * string) list;
  bare : (string * string list list) list;
  opened : string list list;
}

let uses_of file =
  let qualified = ref [] and bare = ref [] and opened = ref [] in
  let local = ref [] in
  let aliases = Hashtbl.create 8 in
  let module_path (lid : Longident.t) =
    try Longident.flatten lid with Misc.Fatal_error -> []
  in
  let alias name (me : Parsetree.module_expr) =
    match (name, me.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } ->
        Hashtbl.replace aliases name (module_path txt)
    | _ -> ()
  in
  let open_module (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> opened := module_path txt :: !opened
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_open (od, body) ->
              let outer = !local in
              (match od.popen_expr.pmod_desc with
              | Pmod_ident { txt; _ } -> local := module_path txt :: outer
              | _ -> ());
              self.module_expr self od.popen_expr;
              self.expr self body;
              local := outer
          | _ ->
              (match e.pexp_desc with
              | Pexp_ident { txt = Lident v; _ } ->
                  bare := (v, !local) :: !bare
              | Pexp_ident { txt = Ldot (m, v); _ } ->
                  qualified := (module_path m, v) :: !qualified
              | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
              | _ -> ());
              super.expr self e);
      module_binding =
        (fun self mb ->
          alias mb.pmb_name.txt mb.pmb_expr;
          super.module_binding self mb);
      open_declaration =
        (fun self od ->
          open_module od.popen_expr;
          super.open_declaration self od);
      open_description =
        (fun self od ->
          opened := module_path od.popen_expr.txt :: !opened;
          super.open_description self od);
      include_declaration =
        (fun self incl ->
          open_module incl.pincl_mod;
          super.include_declaration self incl);
    }
  in
  if Filename.check_suffix file ".mli" then
    it.signature it (parse file Parse.interface)
  else it.structure it (parse file Parse.implementation);
  let expand = function
    | m :: rest when Hashtbl.mem aliases m -> Hashtbl.find aliases m @ rest
    | path -> path
  in
  {
    qualified = List.map (fun (m, v) -> (expand m, v)) !qualified;
    bare = List.map (fun (v, local) -> (v, List.map expand local)) !bare;
    opened = List.map expand !opened;
  }

let rec is_suffix ~of_ path =
  path = of_ || match of_ with [] -> false | _ :: t -> is_suffix ~of_:t path

let own_module (e : export) file =
  Filename.remove_extension file = Filename.remove_extension e.file

let used_in (e : export) file u =
  let names_module m = m <> [] && is_suffix ~of_:e.path m in
  (not (own_module e file))
  && (List.exists (fun (m, v) -> v = e.name && names_module m) u.qualified
     || List.exists
          (fun (v, local) ->
            v = e.name && List.exists names_module (local @ u.opened))
          u.bare)

let full_name (e : export) = String.concat "." (e.path @ [ e.name ])

let roots = [ "../lib"; "../bin"; "../bench"; "../examples"; "../tools"; "." ]

let test_every_export_used () =
  let exports = exports () in
  let uses =
    List.concat_map files roots |> List.map (fun f -> (f, uses_of f))
  in
  let unused =
    List.filter
      (fun e -> not (List.exists (fun (f, u) -> used_in e f u) uses))
      exports
  in
  let names = List.map full_name exports
  and unused_names = List.map full_name unused in
  let problems =
    List.filter_map
      (fun e ->
        if List.mem_assoc (full_name e) allowed then None
        else
          Some
            (Printf.sprintf "%s (%s) has no user outside its module"
               (full_name e)
               (String.sub e.file 3 (String.length e.file - 3))))
      unused
    @ List.filter_map
        (fun (name, _) ->
          if not (List.mem name names) then
            Some (Printf.sprintf "allowlist entry %s names no export" name)
          else if not (List.mem name unused_names) then
            Some
              (Printf.sprintf "allowlist entry %s has a user; drop the entry"
                 name)
          else None)
        allowed
  in
  if problems <> [] then Alcotest.fail (String.concat "\n" problems)

let () =
  Alcotest.run "surface"
    [
      ( "surface",
        [
          Alcotest.test_case "every lib export has a user" `Quick
            test_every_export_used;
        ] );
    ]
