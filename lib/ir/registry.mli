(** Dialect and operation registry.

    Dialect libraries register their ops here; the {!Verifier} consults
    the registry to check op well-formedness. *)

type op_info = {
  summary : string;
  verify : Op.t -> (unit, string) result;
}

val register_op :
  dialect:string ->
  mnemonic:string ->
  ?summary:string ->
  ?verify:(Op.t -> (unit, string) result) ->
  unit ->
  unit
(** Registers ["dialect.mnemonic"]. Re-registration replaces the entry
    (dialect modules may be initialised more than once). *)

val dialect_registered : string -> bool
val lookup : string -> op_info option
(** Look up a fully-qualified op name. *)

val registered_ops : unit -> string list
(** Sorted list of all registered op names. *)
