(* Shared helpers for the test suites. *)

let () = Dialects.Register_all.register_all ()

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1. (Float.abs expected)
  then
    Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

let check_raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* A tiny torch-level module used by several suites: the HDC similarity
   kernel at configurable sizes. *)
let hdc_source ?(q = 4) ?(dims = 64) ?(classes = 4) ?(k = 1) () =
  Workloads.Kernels.hdc_dot ~q ~dims ~classes ~k

let hdc_torch ?q ?dims ?classes ?k () =
  Frontend.Emit.compile_string (hdc_source ?q ?dims ?classes ?k ())

let spec32 = Archspec.Spec.square 32 Archspec.Spec.Base

let rows_testable =
  Alcotest.testable
    (fun fmt rows ->
      Format.pp_print_string fmt
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun r ->
                   String.concat ","
                     (Array.to_list (Array.map string_of_float r)))
                 rows))))
    (fun a b -> a = b)

let int_rows_testable =
  Alcotest.testable
    (fun fmt rows ->
      Format.pp_print_string fmt
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun r ->
                   String.concat ","
                     (Array.to_list (Array.map string_of_int r)))
                 rows))))
    (fun a b -> a = b)
