(** The compile-as-a-service daemon: a Unix-domain-socket server that
    routes {!Protocol} requests onto the existing {!Pool}, answering from
    a content-addressed {!Cache} when it can.

    One I/O thread multiplexes every client socket through [Unix.select]
    over non-blocking fds, with per-connection read/write buffers and a
    reading → queued → routing → writing state machine; a dispatcher
    thread feeds the Domain pool, and outcomes return to the loop over a
    self-pipe. Both deadline kinds (mid-frame read, slow route) fold into
    the select timeout, and a write-buffer high-watermark backpressures
    slow consumers.

    Guarantees (asserted by test/test_service.ml, test/test_faults.ml and
    the service-smoke / fault-smoke rules):

    - {b Byte-identical replay} — a cache hit replies with exactly the
      bytes of the cold route reply for the same request content.
    - {b Single computation} — concurrent requests with equal
      fingerprints coalesce onto one in-flight routing job; the counters
      ({!counters}[.routes_computed], [.coalesced] and
      {!Codar.Stats.cache}[.insertions]) prove it.
    - {b Graceful degradation} — malformed frames, oversized frames,
      unknown ops, router failures and clients that vanish mid-reply are
      answered, dropped or counted; none of them kill the daemon. Under
      an armed {!Faults} plan the same holds for injected short reads,
      mid-frame EOFs, stalls, write errors, pool task exceptions and
      persistence faults.
    - {b Admission control} — a route request that finds the job queue
      full is refused with the typed [overloaded] error instead of
      waiting; {!Client.request_with_retry} implements the client half
      (seeded-jitter backoff).
    - {b Deadlines} — with [timeout_ms] set, a request frame stalled
      mid-transmission or a route that waits/computes past the deadline
      is answered [deadline_exceeded]; neither blocks other connections.
    - {b Graceful drain} — with [handle_signals] set, SIGTERM/SIGINT stop
      the accept loop, finish in-flight work, persist the cache when
      configured and make {!run} return normally (exit 0 in the CLI). *)

type config

val config :
  ?jobs:int ->
  ?cache_entries:int ->
  ?cache_bytes:int ->
  ?cache_file:string ->
  ?max_request_bytes:int ->
  ?queue_capacity:int ->
  ?timeout_ms:int ->
  ?handle_signals:bool ->
  ?write_watermark_bytes:int ->
  ?max_connections:int ->
  ?on_route_start:(string -> unit) ->
  socket_path:string ->
  unit ->
  config
(** The daemon's settings:

    - [jobs] (default 1): Domain-pool width for routing.
    - [cache_entries] (1024) and [cache_bytes] (no cap): the cache's
      bounds.
    - [cache_file] (none): loaded at startup when present; saved on
      shutdown and by the [cache save] request.
    - [max_request_bytes] ({!Frame.default_max_bytes}): the frame cap.
    - [queue_capacity] (64): bound on not-yet-dispatched routing jobs.
    - [timeout_ms] (none, wait forever): the per-request deadline; it
      bounds both mid-frame read stalls and the wait for a routing
      outcome.
    - [handle_signals] (false): install SIGTERM/SIGINT handlers that
      drain gracefully; off by default so in-process tests keep their
      signal dispositions.
    - [write_watermark_bytes] (256 KiB): a connection whose buffered
      unsent reply bytes exceed this stops being read until the buffer
      drains below half of it.
    - [max_connections] (960): the concurrent-connection cap. At the cap
      the listen fd stops being polled, so further connections wait in
      the kernel's listen backlog until a slot frees. [Unix.select]
      rejects fds at or beyond FD_SETSIZE (1024), so keep it under that
      less the fds the process holds besides.
    - [on_route_start] (none): a test hook, called with the fingerprint
      as each routing job starts (possibly from a pool domain).

    Raises [Invalid_argument] on [jobs < 1], [queue_capacity < 1],
    [timeout_ms < 1], [write_watermark_bytes < 1] or
    [max_connections < 1]. *)

val select_timeout : now:float -> float list -> float
(** Seconds the loop may sleep given the armed absolute deadlines:
    [-1.] (sleep until an fd event) when no deadline is armed, else
    [max 0 (nearest - now)]. Pure; the poll-loop unit test pins it. *)

type counters = {
  mutable requests : int;  (** frames parsed into a request *)
  mutable responses_ok : int;
  mutable responses_err : int;
  mutable routes_computed : int;  (** actual router invocations *)
  mutable coalesced : int;
      (** requests that found an identical fingerprint already in flight
          and waited for that computation instead of starting their own —
          the duplicate-suppression guarantee is asserted through it *)
  mutable connections : int;  (** clients accepted *)
  mutable disconnects : int;  (** clients lost mid-conversation, survived *)
  mutable timeouts : int;
      (** requests answered [deadline_exceeded]: a stalled mid-frame
          client or a route that outlived [timeout_ms] *)
  mutable overloads : int;
      (** requests answered [overloaded]: the dispatch queue was full
          when they arrived (admission control, not blocking) *)
  mutable conns_active : int;  (** connections currently open *)
  mutable conns_peak : int;  (** high-watermark of [conns_active] *)
  mutable bytes_in : int;  (** request bytes read off client sockets *)
  mutable bytes_out : int;  (** reply bytes written to client sockets *)
  mutable wb_stalls : int;
      (** backpressure episodes: a slow-reading connection whose write
          buffer crossed the high-watermark and was paused for reading *)
}
(** The daemon's counters: the [stats] reply's ["service"] object, in
    field order, and what {!run} returns. *)

val pp_counters : Format.formatter -> counters -> unit

val run : ?on_ready:(unit -> unit) -> config -> counters
(** Bind (unlinking a stale socket file first), serve until a [shutdown]
    request (or, with [handle_signals], SIGTERM/SIGINT), then drain
    in-flight work, flush every connection, persist the cache when
    configured, unlink the socket and return the final counters.
    A corrupt or truncated cache file at startup logs a warning to stderr
    and starts cold — it never prevents serving. [on_ready] fires once
    the socket is listening (tests start their clients from it). Raises
    [Unix.Unix_error] when the socket cannot be bound. *)
