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

(* Parser fuzzing: one of [seeds] with 1-4 bytes overwritten, inserted
   or deleted (half the new bytes drawn from the IR and TorchScript
   punctuation, half from any byte), then truncated one time in four. *)
let syntax_bytes = "%\"\\(){}[]<>:,=-^#@!.ex0123456789 \n"

let mutant seeds =
  let seeds = Array.of_list seeds in
  let gen st =
    let byte () =
      if Random.State.bool st then Char.chr (Random.State.int st 256)
      else syntax_bytes.[Random.State.int st (String.length syntax_bytes)]
    in
    let s = ref seeds.(Random.State.int st (Array.length seeds)) in
    for _ = 1 to 1 + Random.State.int st 4 do
      let n = String.length !s in
      let pos = Random.State.int st (n + 1) in
      let keep_from i = String.sub !s i (n - i) in
      s :=
        match Random.State.int st 3 with
        | 0 when pos < n ->
            String.sub !s 0 pos ^ String.make 1 (byte ()) ^ keep_from (pos + 1)
        | 1 when pos < n -> String.sub !s 0 pos ^ keep_from (pos + 1)
        | _ -> String.sub !s 0 pos ^ String.make 1 (byte ()) ^ keep_from pos
    done;
    if Random.State.int st 4 = 0 then
      String.sub !s 0 (Random.State.int st (String.length !s + 1))
    else !s
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen
