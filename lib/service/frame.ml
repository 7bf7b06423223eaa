(* Newline-delimited frame I/O over a file descriptor. The framer
   enforces the frame size limit *while buffering*, so an abusive client
   cannot balloon daemon memory by simply never sending a newline.

   The server reads with the non-blocking [read_once], which applies the
   armed {!Faults} plan's read-side points, and writes with [write_once].
   The blocking [reader] and [write] belong to the client and never
   inject, so an in-process fault-soak test injects only on the daemon
   side of each socket. *)

(* ------------------------------------------------------------ framer *)

(* The inbound byte buffer of the server's connections and the client's
   reader. Framing cost is linear in the bytes received: each byte is
   appended once, scanned for '\n' once ([scanned] remembers how far the
   partial frame has been searched) and copied out once, with its line.
   Taken bytes are reclaimed by moving the live tail to the front only
   when the free space runs out, and the capacity then grows to twice the
   live bytes, so every byte is moved O(1) times amortised. *)
type framer = {
  max : int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first byte not yet taken *)
  mutable stop : int;  (* end of the buffered bytes *)
  mutable scanned : int;  (* [start, scanned) holds no '\n' *)
}

let initial_capacity = 512

(* a buffer grown for one large frame is given back once it drains *)
let shrink_above = 1024 * 1024

let framer ~max_bytes =
  {
    max = max_bytes;
    buf = Bytes.create initial_capacity;
    start = 0;
    stop = 0;
    scanned = 0;
  }

let buffered f = f.stop - f.start

let clear f =
  f.start <- 0;
  f.stop <- 0;
  f.scanned <- 0;
  if Bytes.length f.buf > shrink_above then
    f.buf <- Bytes.create initial_capacity

let feed f bytes pos len =
  if f.stop + len > Bytes.length f.buf then begin
    let live = buffered f in
    let need = live + len in
    let dst =
      if 2 * need <= Bytes.length f.buf then f.buf
      else Bytes.create (2 * need)
    in
    Bytes.blit f.buf f.start dst 0 live;
    f.buf <- dst;
    f.scanned <- f.scanned - f.start;
    f.start <- 0;
    f.stop <- live
  end;
  Bytes.blit bytes pos f.buf f.stop len;
  f.stop <- f.stop + len

(* the first '\n' in [buf.[i .. stop - 1]], or [stop] *)
let rec newline buf i stop =
  if i >= stop || Bytes.get buf i = '\n' then i else newline buf (i + 1) stop

let next f =
  let i = newline f.buf f.scanned f.stop in
  if i < f.stop then begin
    let len = i - f.start in
    (* a complete line can exceed the cap too, when it arrives newline
       and all within one read *)
    let frame =
      if len > f.max then `Oversized
      else `Line (Bytes.sub_string f.buf f.start len)
    in
    f.start <- i + 1;
    f.scanned <- f.start;
    if f.start = f.stop then clear f;
    frame
  end
  else begin
    f.scanned <- f.stop;
    if buffered f > f.max then `Oversized else `Partial
  end

let take_rest f =
  let rest = Bytes.sub_string f.buf f.start (buffered f) in
  clear f;
  rest

(* ------------------------------------------------------------ reader *)

type reader = {
  fd : Unix.file_descr;
  lines : framer;
  chunk : Bytes.t;
  mutable eof : bool;
}

let default_max_bytes = 8 * 1024 * 1024

let reader ?(max_bytes = default_max_bytes) fd =
  { fd; lines = framer ~max_bytes; chunk = Bytes.create 65536; eof = false }

let rec read r =
  match next r.lines with
  | (`Line _ | `Oversized) as frame -> frame
  | `Partial ->
    if r.eof then
      if buffered r.lines = 0 then `Eof
      else
        (* final unterminated frame: accept it (lenient EOF framing) *)
        `Line (take_rest r.lines)
    else begin
      (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> r.eof <- true
      | n -> feed r.lines r.chunk 0 n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception
          Unix.Unix_error
            ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN), _, _)
        ->
        r.eof <- true);
      read r
    end

(* ------------------------------------------- non-blocking primitives *)

(* One read attempt against a (normally O_NONBLOCK) fd, for the server's
   loop, with the fault plan's read-side points applied in a fixed order:
   mid-frame EOF first, then the stall pause, then the short-read cap. *)
let read_once fd bytes =
  if Faults.fire Faults.Frame_read_eof then `Eof
  else begin
    Faults.pause Faults.Frame_stall;
    let cap =
      if Faults.fire Faults.Frame_short_read then 1 else Bytes.length bytes
    in
    match Unix.read fd bytes 0 cap with
    | 0 -> `Eof
    | n -> `Data n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      `Again
    | exception
        Unix.Unix_error
          ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN), _, _)
      ->
      `Eof
  end

(* One write attempt; partial progress is the caller's buffer problem.
   No fault point here on purpose: [Frame_write_error] fires once per
   reply frame, and a non-blocking writer may need many attempts per
   frame, so the server queries the point when it *enqueues* a frame. *)
let write_once fd s ~pos ~len =
  match Unix.write_substring fd s pos len with
  | n -> `Wrote n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    `Again

let write fd line =
  let payload = line ^ "\n" in
  let len = String.length payload in
  let pos = ref 0 in
  while !pos < len do
    let n =
      try Unix.write_substring fd payload !pos (len - !pos)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    pos := !pos + n
  done
