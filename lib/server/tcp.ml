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

(* A field is a finite decimal float,
   [+-]?digits[.digits][(e|E)[+-]digits], where one side of the point
   may be empty but not both. [float_of_string] alone would also take
   hex floats, [_] separators, nan and infinity. *)
let decimal_float f =
  let n = String.length f in
  let digits i =
    let j = ref i in
    while !j < n && f.[!j] >= '0' && f.[!j] <= '9' do
      incr j
    done;
    !j
  in
  let sign i = if i < n && (f.[i] = '+' || f.[i] = '-') then i + 1 else i in
  let i = sign 0 in
  let j = digits i in
  let k = if j < n && f.[j] = '.' then digits (j + 1) else j in
  (* [k - i] counts the point too, so a lone point has length 1 *)
  let mantissa = k - i > (if k > j then 1 else 0) in
  let e =
    if k < n && (f.[k] = 'e' || f.[k] = 'E') then
      let a = sign (k + 1) in
      let b = digits a in
      if b > a then b else k
    else k
  in
  if mantissa && e = n then
    match float_of_string_opt f with
    | Some v when Float.is_finite v -> Some v
    | _ -> None
  else None

let parse_request line =
  let parse_row i s =
    let fields =
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun f -> f <> "")
    in
    if fields = [] then Server.fail "request row %d is empty" i;
    Array.of_list
      (List.map
         (fun f ->
           match decimal_float f with
           | Some v -> v
           | None -> Server.fail "request row %d: bad float %S" i f)
         fields)
  in
  let rows = String.split_on_char ';' line in
  if List.for_all (fun r -> String.trim r = "") rows then
    Server.fail "empty request";
  Array.of_list (List.mapi parse_row rows)

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

(* ---- connection handling ---------------------------------------------- *)

(* One domain per connection: blocking reads are fine because shutdown
   shuts the socket down under us, which ends the read. *)
let serve_connection l fd =
  let server = l.l_server in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let client = Server.connect server in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
        let reply =
          match Server.rpc client (parse_request line) with
          | r -> format_response r
          | exception e -> format_error e
        in
        let ok =
          try
            output_string oc reply;
            output_char oc '\n';
            flush oc;
            true
          with Sys_error _ | Unix.Unix_error _ -> false
        in
        if ok then loop ()
  in
  loop ();
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
