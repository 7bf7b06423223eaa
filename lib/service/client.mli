(** Blocking client for the routing daemon's socket. *)

type t

val connect : ?max_reply_bytes:int -> string -> t
(** Connect to the daemon at this socket path. Raises [Unix.Unix_error]
    ([ENOENT]/[ECONNREFUSED]) when no daemon is listening —
    [codar_cli client] maps that to the I/O exit code.
    [max_reply_bytes] bounds a single reply frame
    ({!Frame.default_max_bytes} by default). *)

val send_line : t -> string -> unit
(** Send one already-serialised request frame (newline appended). *)

val recv_line : t -> string option
(** Next reply frame; [None] once the server closes the connection. *)

val request : t -> string -> string
(** [send_line] then [recv_line]; fails if the server hangs up first. *)

val request_many : t -> string list -> string list
(** Pipelined requests over the persistent connection: all frames are
    written while replies stream back (interleaved over [select], so a
    large pipeline cannot deadlock against a slow server), returning the
    replies in request order — the daemon answers each connection
    strictly FIFO. [codar_cli client --repeat] uses it to amortise
    connect cost. Fails like {!request} if the server closes early or a
    reply passes [max_reply_bytes]. Bypasses the {!recv_line} buffer; do not interleave
    with a {!request} that left a partial reply buffered. *)

val request_with_retry :
  ?attempts:int -> ?base_delay_ms:int -> ?seed:int -> t -> string -> string
(** {!request}, retried on an ["overloaded"] reply: up to [attempts]
    (default 5) extra tries, sleeping per {!retry_delays_ms} (default
    base 5 ms, seed 0) between them. Returns the last reply — still
    ["overloaded"] when the daemon never had room. Every other reply,
    including errors, returns immediately. *)

val retry_delays_ms :
  attempts:int -> base_delay_ms:int -> seed:int -> int list
(** The deterministic backoff schedule [request_with_retry] sleeps:
    retry [k] waits [base·2ᵏ + jitter(seed, k)] ms with the jitter
    uniform in [\[0, base·2ᵏ\]] via {!Faults.mix}. Pure — the
    determinism test pins it. Raises [Invalid_argument] on a negative
    [attempts] or a [base_delay_ms < 1]. *)

val close : t -> unit

val with_connection : ?max_reply_bytes:int -> string -> (t -> 'a) -> 'a
