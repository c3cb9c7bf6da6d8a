(** A newline-delimited TCP front-end over {!Server}: every accepted
    connection becomes one logical {!Server.client} served by its own
    domain, so the scheduler's round-robin fairness applies per
    connection.

    {2 Wire protocol}

    One request per line; one response line per request, in request
    order (the server preserves per-client order).

    - Request: query rows separated by [";"], each row [d] floats
      separated by spaces or tabs — ["1 0 1 0; 0 1 1 0"]. A float is
      decimal, [[+-]digits[.digits][(e|E)[+-]digits]] with one side of
      the point possibly empty, and finite; hex floats, [_]
      separators, [nan] and [infinity] are refused. An accepted field
      is the double nearest its decimal value, as [float_of_string]
      gives it. A line of only blanks gets no reply.
    - Limits: a request holds at most the server's [queue_cap] rows
      and [queue_cap * d * 64] bytes, the newline excluded. A longer
      line is answered ["err request line exceeds N bytes"] (its bytes
      are dropped up to the next newline, never held), one with more
      rows ["err request line exceeds N rows"]. A connection's read
      buffer is reused across its requests and grows only to the byte
      limit.
    - Response: ["ok"] then per row the selected
      [index:value] pairs joined by [","], rows joined by [";"] —
      ["ok 3:0.25,7:0.5;1:0.75,2:0.5"]. Values are printed with
      ["%.17g"], which round-trips doubles exactly.
    - Errors: ["err <message>"] (malformed line, wrong width, a limit,
      overload); the connection stays open.

    A connection that ends leaves the server ({!Server.disconnect}).
    The parser/formatter pair is exposed so in-process tests and host
    clients share one implementation. *)

type listener

val listen : ?backlog:int -> port:int -> Server.t -> listener
(** Bind [127.0.0.1:port] ([port = 0] picks an ephemeral port — read it
    back with {!port}), start the accept domain and serve until
    {!shutdown}. @raise Server.Server_error if the bind fails. *)

val port : listener -> int
(** The bound port (useful with [port:0]). *)

val shutdown : listener -> unit
(** Stop accepting, close every live connection, join all domains.
    Does {e not} stop the wrapped {!Server.t} — the caller owns it.
    Idempotent. *)

val connections_served : listener -> int
(** Connections accepted so far (test hook). *)

(** {1 Wire codec} *)

val parse_request : string -> float array array
(** One request line in the wire format above, without the limits.
    Each row is walked twice, to count its fields and to parse them
    into an array of exactly that size; nothing is allocated per
    field on the fast path.
    @raise Server.Server_error on empty/malformed input. *)

val format_response : Server.response -> string
