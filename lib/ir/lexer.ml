type token =
  | IDENT of string
  | VALUE of int
  | AT_IDENT of string
  | SYM of string
  | BANG_TYPE of string
  | SHAPED_TYPE of string * string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | COLON
  | EQUAL
  | ARROW
  | CARET
  | EOF

exception Lex_error of string * int

let token_to_string = function
  | IDENT s -> s
  | VALUE i -> "%" ^ string_of_int i
  | AT_IDENT s -> "@" ^ s
  | SYM s -> "#" ^ s
  | BANG_TYPE s -> "!" ^ s
  | SHAPED_TYPE (k, s) -> k ^ "<" ^ s ^ ">"
  | INT i -> string_of_int i
  | FLOAT f -> Printf.sprintf "%g" f
  | STRING s -> Printf.sprintf "%S" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | COLON -> ":"
  | EQUAL -> "="
  | ARROW -> "->"
  | CARET -> "^"
  | EOF -> "<eof>"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let pos = ref 0 in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let read_ident () =
    let start = !pos in
    while !pos < n && is_ident_char src.[!pos] do
      incr pos
    done;
    String.sub src start (!pos - start)
  in
  let read_number () =
    let start = !pos in
    if !pos < n && src.[!pos] = '-' then incr pos;
    while
      !pos < n
      && (is_digit src.[!pos]
         || src.[!pos] = '.'
         || src.[!pos] = 'e'
         || src.[!pos] = 'E'
         || ((src.[!pos] = '+' || src.[!pos] = '-')
            && !pos > start
            && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E')))
    do
      incr pos
    done;
    let s = String.sub src start (!pos - start) in
    (* "inf"/"nan" continuations like "-inf" are handled here too. *)
    if !pos < n && is_ident_start src.[!pos] && s = "-" then (
      let id = read_ident () in
      match id with
      | "inf" -> FLOAT Float.neg_infinity
      | _ -> raise (Lex_error ("bad number: -" ^ id, start)))
    else
      match int_of_string_opt s with
      | Some i -> INT i
      | None -> (
          match float_of_string_opt s with
          | Some f -> FLOAT f
          | None -> raise (Lex_error ("bad number: " ^ s, start)))
  in
  let read_string () =
    (* Called with src.[!pos] = '"'. Uses OCaml-style escapes. *)
    let buf = Buffer.create 16 in
    incr pos;
    let rec go () =
      if !pos >= n then raise (Lex_error ("unterminated string", !pos));
      match src.[!pos] with
      | '"' -> incr pos
      | '\\' -> (
          incr pos;
          if !pos >= n then raise (Lex_error ("bad escape", !pos));
          let c = src.[!pos] in
          incr pos;
          (match c with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | '0' .. '9' -> (
              (* decimal escape \DDD, DDD at most 255 *)
              let start = !pos - 1 in
              if start + 3 > n then raise (Lex_error ("bad escape", start));
              let ddd = String.sub src start 3 in
              match int_of_string_opt ddd with
              | Some code when String.for_all is_digit ddd && code <= 255 ->
                  pos := start + 3;
                  Buffer.add_char buf (Char.chr code)
              | _ -> raise (Lex_error ("bad escape \\" ^ ddd, start)))
          | c -> raise (Lex_error (Printf.sprintf "bad escape \\%c" c, !pos)));
          go ())
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '/' && peek 1 = Some '/' then (
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done)
    else if c = '(' then (
      emit LPAREN;
      incr pos)
    else if c = ')' then (
      emit RPAREN;
      incr pos)
    else if c = '{' then (
      emit LBRACE;
      incr pos)
    else if c = '}' then (
      emit RBRACE;
      incr pos)
    else if c = '[' then (
      emit LBRACKET;
      incr pos)
    else if c = ']' then (
      emit RBRACKET;
      incr pos)
    else if c = ',' then (
      emit COMMA;
      incr pos)
    else if c = ':' then (
      emit COLON;
      incr pos)
    else if c = '=' then (
      emit EQUAL;
      incr pos)
    else if c = '^' then (
      emit CARET;
      incr pos)
    else if c = '%' then (
      incr pos;
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      if !pos = start then raise (Lex_error ("expected value id after %", !pos));
      match int_of_string_opt (String.sub src start (!pos - start)) with
      | Some id -> emit (VALUE id)
      | None -> raise (Lex_error ("value id out of range", start)))
    else if c = '@' then (
      incr pos;
      emit (AT_IDENT (read_ident ())))
    else if c = '#' then (
      incr pos;
      emit (SYM (read_ident ())))
    else if c = '!' then (
      incr pos;
      emit (BANG_TYPE (read_ident ())))
    else if c = '"' then emit (STRING (read_string ()))
    else if c = '-' then
      if peek 1 = Some '>' then (
        emit ARROW;
        pos := !pos + 2)
      else emit (read_number ())
    else if is_digit c then emit (read_number ())
    else if is_ident_start c then (
      let id = read_ident () in
      (* tensor<...> / memref<...> are lexed as one token because the
         shape syntax 10x8xf32 is not otherwise tokenizable. *)
      if (id = "tensor" || id = "memref") && peek 0 = Some '<' then (
        incr pos;
        let start = !pos in
        while !pos < n && src.[!pos] <> '>' do
          incr pos
        done;
        if !pos >= n then raise (Lex_error ("unterminated type", start));
        let body = String.sub src start (!pos - start) in
        incr pos;
        emit (SHAPED_TYPE (id, body)))
      else
        match id with
        | "inf" -> emit (FLOAT Float.infinity)
        | "nan" -> emit (FLOAT Float.nan)
        | _ -> emit (IDENT id))
    else raise (Lex_error (Printf.sprintf "unexpected character %c" c, !pos))
  done;
  emit EOF;
  Array.of_list (List.rev !toks)
