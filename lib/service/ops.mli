(** The daemon's reply frames and its route lookup, apart from the
    {!Server} loop so that in-process callers (perfbench's replays, the
    protocol tests) build the bytes the daemon writes. *)

module Json = Report.Json

val item_ok : fingerprint:string -> Report.Record.t -> Json.t
val item_err : Protocol.error_code -> string -> Json.t

val deadline_item : int option -> Json.t
(** The [deadline_exceeded] route item for a [timeout_ms] config. *)

val overloaded_item : int -> Json.t
(** The [overloaded] route item for a queue capacity. *)

val stopping_item : Json.t
(** The [io] item a route receives when the daemon is draining. *)

val find_line :
  m:Mutex.t -> cache:(unit -> Cache.t) -> string -> Cache.hit option
(** The request memo's answer to a raw frame line, looked up before the
    line is decoded. Only a line that opens a JSON object ([{]) is looked
    up, and only {!lookup_route} [~line] memoises one, after the line
    decoded to a route request without an ["id"]: a hit is that request's
    cached record, counted as one cache hit and one memo hit, with its
    recency refreshed. Runs under [m], the caller's lock. *)

val line_key : ?id:Json.t -> string -> string option
(** The [~line] to pass {!lookup_route} for a top-level route frame that
    decoded from [line] with [id]: the line itself when the frame has no
    id and {!find_line} looks such lines up; [None] (the request key)
    otherwise. *)

val lookup_route :
  m:Mutex.t ->
  cache:(unit -> Cache.t) ->
  miss:
    (string ->
    Engine.spec ->
    ([> `Hit of Cache.hit | `Bad of string ] as 'a)) ->
  ?line:string ->
  Protocol.route_req ->
  'a
(** The cache lookup of one route request. The
    request's memo key is [line] when given ({!line_key}; {!find_line}
    has already missed it) and its {!Engine.request_key} otherwise, which
    answers [`Hit] without parsing when memoised. Any other request is
    resolved ([`Bad] on a bad request), fingerprinted and looked up, and
    memoised under its key when that lookup hits. On a miss,
    [miss fp spec] decides the answer. Cache access — [miss] included —
    runs under [m], the caller's lock, so the caller can enqueue
    atomically with the lookup; parsing runs outside it. *)

val hit_item : Cache.hit -> Json.t
(** [item_ok] of a cache hit. *)

val hit_frame : ?id:Json.t -> Cache.hit -> string
(** [route_frame ?id (hit_item hit)], byte for byte, written around the
    hit's stored record JSON without rebuilding the record's tree. *)

val outcome_item :
  fp:string -> (Report.Record.t, string) result -> Json.t
(** A finished routing outcome as an item ([ok] or [route_failed]). *)

val route_frame : ?id:Json.t -> Json.t -> string
(** Lift a route item to a top-level frame ([op:"route"] on success, a
    typed error frame otherwise). *)

val batch_frame : ?id:Json.t -> Json.t list -> string
val ping_frame : ?id:Json.t -> unit -> string
val shutdown_frame : ?id:Json.t -> unit -> string

val stats_frame :
  ?id:Json.t ->
  jobs:int ->
  svc_json:Json.t ->
  cache_counters:Json.t ->
  unit ->
  string
