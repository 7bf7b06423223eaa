(** Newline-delimited frame I/O over a raw [Unix] file descriptor —
    the transport under {!Protocol}, shared by server and client. *)

(** {2 Framing}

    The inbound byte buffer under both the blocking {!reader} and the
    evented server. Its cost is linear in the bytes received: each byte
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

val reader : ?max_bytes:int -> ?inject:bool -> Unix.file_descr -> reader
(** Buffered line reader over a {!framer}, so a frame costs time linear
    in its size however the peer splits it into writes. The limit
    applies to a single frame and is enforced while buffering, not
    after. [inject] (default [false])
    opts this reader into the armed {!Faults} plan — short reads,
    mid-frame EOF, read stalls; the daemon sets it, clients do not. *)

val read :
  ?timeout_s:float ->
  reader ->
  [ `Line of string | `Eof | `Oversized | `Timeout ]
(** Next frame, without its newline. A non-empty unterminated trailer
    before EOF is yielded as a final [`Line]. Connection-reset errors
    read as [`Eof]; [`Oversized] poisons the reader (framing is lost —
    the caller should answer and drop the connection).

    [timeout_s] bounds how long a {e partially received} frame may take
    to complete, measured from its first buffered byte; an idle
    connection with no pending bytes waits forever. On expiry the read
    returns [`Timeout] — also framing-poisoning, since the peer's
    unfinished bytes are abandoned in the buffer. *)

val read_once :
  ?inject:bool ->
  Unix.file_descr ->
  Bytes.t ->
  [ `Data of int | `Eof | `Again ]
(** One [Unix.read] into [bytes] for a non-blocking fd — the evented
    server's read primitive. [`Again] maps [EAGAIN]/[EWOULDBLOCK]/
    [EINTR]; connection-reset errors and a zero-byte read map to [`Eof].
    [inject] applies the read-side {!Faults} points in the same order as
    the blocking {!read} path (mid-frame EOF, stall, short-read cap). *)

val write_once :
  Unix.file_descr -> string -> pos:int -> len:int -> [ `Wrote of int | `Again ]
(** One [Unix.write_substring] attempt for a non-blocking fd. [`Again]
    maps [EAGAIN]/[EWOULDBLOCK]/[EINTR]; a vanished peer still raises
    [Unix.Unix_error] ([EPIPE]). Carries no fault point — the evented
    server queries {!Faults.point}[.Frame_write_error] once per enqueued
    frame instead, mirroring {!write}'s once-per-frame query rate. *)

val write : ?inject:bool -> Unix.file_descr -> string -> unit
(** Write [line + "\n"] fully. Raises [Unix.Unix_error] (e.g. [EPIPE])
    when the peer is gone. [inject] (default [false]) opts the write
    into the armed {!Faults} plan's {!Faults.point}[.Frame_write_error]
    point, which raises the same [EPIPE] a vanished client would. *)
