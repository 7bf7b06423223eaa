(** Newline-delimited frame I/O over a raw [Unix] file descriptor —
    the transport under {!Protocol}: non-blocking primitives for the
    {!Server} loop, a blocking reader and writer for {!Client}. *)

(** {2 Framing}

    The inbound byte buffer under both the blocking {!reader} and the
    server's connections. Its cost is linear in the bytes received: each byte
    is appended once, scanned for the newline once, and copied out once
    with its line; a frame arriving in many small reads is never
    re-copied or re-scanned. *)

type framer

val framer : max_bytes:int -> framer
(** An empty buffer whose frames may hold at most [max_bytes] bytes. *)

val feed : framer -> Bytes.t -> int -> int -> unit
(** [feed f bytes pos len] appends [bytes.[pos .. pos + len - 1]]. *)

val next : framer -> [ `Line of string | `Oversized | `Partial ]
(** Take the oldest complete frame, without its newline. [`Oversized]
    when that frame, or the partial frame buffered after the last
    newline, passes [max_bytes] — framing is lost, the caller answers
    and drops the connection. [`Partial] when no complete frame is
    buffered: wait for more bytes, or take the unterminated trailer with
    {!take_rest} at end of input. *)

val buffered : framer -> int
(** Bytes held and not yet taken: complete frames and the partial one. *)

val take_rest : framer -> string
(** Every byte held, as one string; empties the buffer. *)

val clear : framer -> unit
(** Drop every byte held. *)

(** {2 Blocking reader} *)

type reader

val default_max_bytes : int
(** 8 MiB — generous for inline-QASM requests, small enough that a
    newline-less abuser cannot balloon the daemon. *)

val reader : ?max_bytes:int -> Unix.file_descr -> reader
(** Buffered blocking line reader over a {!framer}, so a frame costs
    time linear in its size however the peer splits it into writes. The
    limit applies to a single frame and is enforced while buffering, not
    after. Never consults the {!Faults} plan. *)

val read : reader -> [ `Line of string | `Eof | `Oversized ]
(** Next frame, without its newline. A non-empty unterminated trailer
    before EOF is yielded as a final [`Line]. Connection-reset errors
    read as [`Eof]; [`Oversized] poisons the reader (framing is lost —
    the caller should answer and drop the connection). *)

(** {2 Non-blocking primitives} *)

val read_once : Unix.file_descr -> Bytes.t -> [ `Data of int | `Eof | `Again ]
(** One [Unix.read] into [bytes] for a non-blocking fd — the server's
    read primitive. [`Again] maps [EAGAIN]/[EWOULDBLOCK]/[EINTR];
    connection-reset errors and a zero-byte read map to [`Eof]. Applies
    the armed {!Faults} plan's read-side points in a fixed order:
    mid-frame EOF, then the stall, then the short-read cap (one byte).
    Unarmed, each query is one atomic load. *)

val write_once :
  Unix.file_descr -> string -> pos:int -> len:int -> [ `Wrote of int | `Again ]
(** One [Unix.write_substring] attempt for a non-blocking fd. [`Again]
    maps [EAGAIN]/[EWOULDBLOCK]/[EINTR]; a vanished peer still raises
    [Unix.Unix_error] ([EPIPE]). Carries no fault point — the server
    queries {!Faults.point}[.Frame_write_error] once per enqueued frame
    instead. *)

(** {2 Blocking writer} *)

val write : Unix.file_descr -> string -> unit
(** Write [line + "\n"] fully. Raises [Unix.Unix_error] (e.g. [EPIPE])
    when the peer is gone. *)
