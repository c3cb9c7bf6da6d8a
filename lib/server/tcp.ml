(* Newline-delimited TCP front-end; see tcp.mli for the protocol. *)

type listener = {
  l_server : Server.t;
  l_sock : Unix.file_descr;
  l_port : int;
  mutable l_accept : unit Domain.t option;
  lm : Mutex.t;
  (* live connections; one that ends closes its fd and moves its domain
     to [l_ended] under [lm], so [shutdown] never touches a closed fd
     number the kernel may have handed out again *)
  mutable l_conns : (Unix.file_descr * unit Domain.t) list;
  mutable l_ended : unit Domain.t list;
  mutable l_served : int;
  mutable l_down : bool;
}

(* ---- wire codec ------------------------------------------------------- *)

(* [String.trim]'s blanks, and [;] too when [semis]. *)
let rec blank ~semis s i stop =
  i >= stop
  ||
  match String.unsafe_get s i with
  | ' ' | '\t' | '\n' | '\r' | '\012' -> blank ~semis s (i + 1) stop
  | ';' -> semis && blank ~semis s (i + 1) stop
  | _ -> false

(* Refuse the request in [s.[pos..stop)]: a line of only blanks and [;]
   is an empty request, whatever else is wrong with it. *)
let refuse s pos stop fmt =
  if blank ~semis:true s pos stop then Server.fail "empty request"
  else Server.fail fmt

let is_digit c = c >= '0' && c <= '9'
let two53 = 1 lsl 53

(* 10^0 .. 10^22: every one is exact in binary64 *)
let pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
    1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

(* Parse the field that starts at [f] (a non-blank byte before [row_end])
   into [row.(j)] and return where it ends. A field is a finite decimal
   float, [+-]?digits[.digits][(e|E)[+-]digits], where one side of the
   point may be empty but not both; [float_of_string] alone would also
   take hex floats, [_] separators, nan and infinity.

   The significand is read as an int. Below 2^53 with a decimal exponent
   within +-22, both it and the power of ten are exact doubles, so one
   multiply or divide is the correctly rounded value (Clinger's fast
   path) and equals [float_of_string]'s. Any other field goes to
   [float_of_string] on its own bytes. *)
let field s ~pos ~stop ~r (row : float array) j f row_end =
  let i = ref f in
  let neg = String.unsafe_get s f = '-' in
  if neg || String.unsafe_get s f = '+' then incr i;
  let m = ref 0 and exact = ref true and digits = ref 0 and frac = ref 0 in
  while !i < row_end && is_digit (String.unsafe_get s !i) do
    if !exact then begin
      m := (!m * 10) + Char.code (String.unsafe_get s !i) - 48;
      if !m >= two53 then exact := false
    end;
    incr digits;
    incr i
  done;
  if !i < row_end && String.unsafe_get s !i = '.' then begin
    incr i;
    while !i < row_end && is_digit (String.unsafe_get s !i) do
      if !exact then begin
        m := (!m * 10) + Char.code (String.unsafe_get s !i) - 48;
        if !m >= two53 then exact := false
      end;
      incr digits;
      incr frac;
      incr i
    done
  end;
  let ok = ref (!digits > 0) and ex = ref 0 in
  if !ok && !i < row_end
     && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E')
  then begin
    incr i;
    let eneg = !i < row_end && String.unsafe_get s !i = '-' in
    if eneg || (!i < row_end && String.unsafe_get s !i = '+') then incr i;
    let d0 = !i in
    while !i < row_end && is_digit (String.unsafe_get s !i) do
      (* past any exponent a double can use; [float_of_string] decides *)
      if !ex < 100_000 then
        ex := (!ex * 10) + Char.code (String.unsafe_get s !i) - 48;
      incr i
    done;
    if !i = d0 then ok := false;
    if eneg then ex := - !ex
  end;
  let e10 = !ex - !frac in
  if
    !ok
    && (!i = row_end
       || String.unsafe_get s !i = ' '
       || String.unsafe_get s !i = '\t')
  then begin
    if !exact && e10 >= -22 && e10 <= 22 then begin
      let v = float_of_int !m in
      let v =
        if e10 >= 0 then v *. Array.unsafe_get pow10 e10
        else v /. Array.unsafe_get pow10 (-e10)
      in
      row.(j) <- (if neg then -.v else v)
    end
    else begin
      match float_of_string_opt (String.sub s f (!i - f)) with
      | Some v when Float.is_finite v -> row.(j) <- v
      | _ ->
          refuse s pos stop "request row %d: bad float %S" r
            (String.sub s f (!i - f))
    end;
    !i
  end
  else begin
    let e = ref !i in
    while
      !e < row_end
      && String.unsafe_get s !e <> ' '
      && String.unsafe_get s !e <> '\t'
    do
      incr e
    done;
    refuse s pos stop "request row %d: bad float %S" r (String.sub s f (!e - f))
  end

(* The request in [s.[pos..stop)]. Per row, one walk counts its fields
   and a second parses them into an array of exactly that size. *)
let scan ~max_rows s pos stop =
  let n_rows = ref 1 in
  for i = pos to stop - 1 do
    if String.unsafe_get s i = ';' then incr n_rows
  done;
  if !n_rows > max_rows then
    Server.fail "request line exceeds %d rows" max_rows;
  let rows = Array.make !n_rows [||] in
  let start = ref pos in
  for r = 0 to !n_rows - 1 do
    let row_end = ref !start and n = ref 0 and in_field = ref false in
    while !row_end < stop && String.unsafe_get s !row_end <> ';' do
      (match String.unsafe_get s !row_end with
      | ' ' | '\t' -> in_field := false
      | _ ->
          if not !in_field then begin
            in_field := true;
            incr n
          end);
      incr row_end
    done;
    if !n = 0 then refuse s pos stop "request row %d is empty" r;
    let row = Array.create_float !n in
    let i = ref !start in
    for j = 0 to !n - 1 do
      while String.unsafe_get s !i = ' ' || String.unsafe_get s !i = '\t' do
        incr i
      done;
      i := field s ~pos ~stop ~r row j !i !row_end
    done;
    rows.(r) <- row;
    start := !row_end + 1
  done;
  rows

let parse_request line = scan ~max_rows:max_int line 0 (String.length line)

let format_response (r : Server.response) =
  let b = Buffer.create 128 in
  Buffer.add_string b "ok ";
  Array.iteri
    (fun i values ->
      if i > 0 then Buffer.add_char b ';';
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "%d:%.17g" r.Server.r_indices.(i).(j) v))
        values)
    r.Server.r_values;
  Buffer.contents b

let format_error = function
  | Server.Server_error msg -> "err " ^ msg
  | Server.Overloaded -> "err overloaded"
  | Server.Stopped -> "err stopped"
  | Serve.Session.Serve_error msg -> "err " ^ msg
  | e -> "err " ^ Printexc.to_string e

(* ---- the per-connection reader ---------------------------------------- *)

(* Lines come out of one buffer that is reused across requests and grows
   by doubling up to [max_line + 1] bytes, so a line longer than
   [max_line] never has to be held: its bytes are dropped up to the next
   newline and the line is reported as [Too_long]. *)
type reader = {
  fd : Unix.file_descr;
  max_line : int;  (* bytes, the newline excluded *)
  mutable buf : bytes;
  mutable lo : int;  (* unread bytes are [buf.[lo..hi)] *)
  mutable hi : int;
  mutable line_lo : int;  (* the last [Line] is [buf.[line_lo..line_hi)] *)
  mutable line_hi : int;
}

type event = Line | Too_long | Eof

let reader fd ~max_line =
  {
    fd;
    max_line;
    buf = Bytes.create (min 4096 (max_line + 1));
    lo = 0;
    hi = 0;
    line_lo = 0;
    line_hi = 0;
  }

let rec newline buf i hi =
  if i >= hi then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline buf (i + 1) hi

(* Read more bytes after [hi], first moving the unread ones to the front
   and growing the buffer if they fill it; [false] at end of stream. *)
let fill rd =
  if rd.lo > 0 then begin
    Bytes.blit rd.buf rd.lo rd.buf 0 (rd.hi - rd.lo);
    rd.hi <- rd.hi - rd.lo;
    rd.lo <- 0
  end;
  if rd.hi = Bytes.length rd.buf then begin
    let grown = Bytes.create (min (rd.max_line + 1) (2 * rd.hi)) in
    Bytes.blit rd.buf 0 grown 0 rd.hi;
    rd.buf <- grown
  end;
  let n = Unix.read rd.fd rd.buf rd.hi (Bytes.length rd.buf - rd.hi) in
  rd.hi <- rd.hi + n;
  n > 0

(* The next line, searching for its newline from [from]. The buffer
   never holds more than [max_line + 1] bytes, so a line found in it is
   within the limit. A last line without a newline is still a line, as
   [input_line] has it. *)
let rec next rd from =
  let p = newline rd.buf from rd.hi in
  if p >= 0 then begin
    rd.line_lo <- rd.lo;
    rd.line_hi <- p;
    rd.lo <- p + 1;
    Line
  end
  else if rd.hi - rd.lo > rd.max_line then discard rd
  else
    let seen = rd.hi - rd.lo in
    match fill rd with
    | true -> next rd (rd.lo + seen)
    | false when rd.hi > rd.lo ->
        rd.line_lo <- rd.lo;
        rd.line_hi <- rd.hi;
        rd.lo <- rd.hi;
        Line
    | false -> Eof
    | exception Unix.Unix_error _ -> Eof

(* Drop bytes up to and including the next newline. *)
and discard rd =
  rd.lo <- 0;
  rd.hi <- 0;
  match Unix.read rd.fd rd.buf 0 (Bytes.length rd.buf) with
  | 0 | (exception Unix.Unix_error _) -> Eof
  | n ->
      let p = newline rd.buf 0 n in
      if p < 0 then discard rd
      else begin
        rd.lo <- p + 1;
        rd.hi <- n;
        Too_long
      end

(* ---- connection handling ---------------------------------------------- *)

(* A request holds at most [queue_cap] rows, each of [d] fields of at
   most 64 bytes. *)
let limits server =
  let rows = Server.queue_cap server in
  (rows, min (Sys.max_string_length - 1) (rows * Server.row_width server * 64))

(* One domain per connection: blocking reads are fine because shutdown
   shuts the socket down under us, which ends the read. *)
let serve_connection l fd =
  let server = l.l_server in
  let max_rows, max_line = limits server in
  let rd = reader fd ~max_line in
  let oc = Unix.out_channel_of_descr fd in
  let send reply =
    try
      output_string oc reply;
      output_char oc '\n';
      flush oc;
      true
    with Sys_error _ | Unix.Unix_error _ -> false
  in
  let serve client =
    let rec loop () =
      match next rd rd.lo with
      | Eof -> ()
      | Too_long ->
          if send (Printf.sprintf "err request line exceeds %d bytes" max_line)
          then loop ()
      | Line ->
          (* nothing writes the buffer until the next [next] *)
          let line = Bytes.unsafe_to_string rd.buf in
          if blank ~semis:false line rd.line_lo rd.line_hi then loop ()
          else
            let reply =
              match
                Server.rpc client (scan ~max_rows line rd.line_lo rd.line_hi)
              with
              | r -> format_response r
              | exception e -> format_error e
            in
            if send reply then loop ()
    in
    loop ();
    Server.disconnect client
  in
  (match Server.connect server with
  | client -> serve client
  | exception Server.Stopped -> ());
  Mutex.protect l.lm (fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let ended, live = List.partition (fun (f, _) -> f = fd) l.l_conns in
      l.l_conns <- live;
      l.l_ended <- List.map snd ended @ l.l_ended)

(* ---- listener --------------------------------------------------------- *)

let accept_loop l =
  let rec loop () =
    match Unix.accept ~cloexec:true l.l_sock with
    | exception Unix.Unix_error _ -> () (* shutdown closed us *)
    | fd, _peer ->
        let admitted, ended =
          Mutex.protect l.lm (fun () ->
              let ended = l.l_ended in
              l.l_ended <- [];
              if l.l_down then (false, ended)
              else begin
                let d = Domain.spawn (fun () -> serve_connection l fd) in
                l.l_conns <- (fd, d) :: l.l_conns;
                l.l_served <- l.l_served + 1;
                (true, ended)
              end)
        in
        (* reap the domains of connections that have ended *)
        List.iter Domain.join ended;
        if admitted then loop ()
        else (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  loop ()

let listen ?(backlog = 16) ~port server =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock backlog
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     Server.fail "cannot bind 127.0.0.1:%d: %s" port (Unix.error_message e));
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let l =
    {
      l_server = server;
      l_sock = sock;
      l_port = actual_port;
      l_accept = None;
      lm = Mutex.create ();
      l_conns = [];
      l_ended = [];
      l_served = 0;
      l_down = false;
    }
  in
  l.l_accept <- Some (Domain.spawn (fun () -> accept_loop l));
  l

let port l = l.l_port
let connections_served l = Mutex.protect l.lm (fun () -> l.l_served)

let shutdown l =
  let domains =
    Mutex.protect l.lm (fun () ->
        if l.l_down then None
        else begin
          l.l_down <- true;
          (* under [lm], so no listed fd has been closed yet *)
          List.iter
            (fun (fd, _) ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            l.l_conns;
          let ds = List.map snd l.l_conns @ l.l_ended in
          l.l_ended <- [];
          Some ds
        end)
  in
  match domains with
  | None -> ()
  | Some ds ->
      (* wake the accept domain: shutdown() forces accept(2) to fail
         even on platforms where a bare close() does not *)
      (try Unix.shutdown l.l_sock Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      (try Unix.close l.l_sock with Unix.Unix_error _ -> ());
      Option.iter Domain.join l.l_accept;
      l.l_accept <- None;
      List.iter Domain.join ds
