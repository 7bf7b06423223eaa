(** Request-handling helpers shared by {!Server} (threaded) and
    {!Evented} (select loop), factored so the two implementations emit
    byte-identical frames for every non-waiting operation — the premise
    of comparing them under one fault-soak transcript and one smoke
    suite. *)

module Json = Report.Json

val item_ok : fingerprint:string -> Report.Record.t -> Json.t
val item_err : Protocol.error_code -> string -> Json.t

val deadline_item : int option -> Json.t
(** The [deadline_exceeded] route item for a [timeout_ms] config. *)

val overloaded_item : int -> Json.t
(** The [overloaded] route item for a queue capacity. *)

val stopping_item : Json.t
(** The [io] item a route receives when the daemon is draining. *)

val lookup_route :
  m:Mutex.t ->
  cache:(unit -> Cache.t) ->
  miss:
    (string ->
    Engine.spec ->
    ([> `Hit of string * Report.Record.t | `Bad of string ] as 'a)) ->
  Protocol.route_req ->
  'a
(** The cache lookup of one route request, shared by both servers. A
    request whose {!Engine.request_key} is memoised answers [`Hit (fp,
    record)] without parsing; any other is resolved ([`Bad] on a bad
    request), fingerprinted and looked up, and memoised when that lookup
    hits. On a miss, [miss fp spec] decides the answer. Cache access —
    [miss] included — runs under [m], the caller's lock, so the caller can
    enqueue atomically with the lookup; parsing runs outside it. *)

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

val cache_info_json : Cache.t -> Json.t

val handle_cache :
  cfg:Config.t ->
  get_cache:(unit -> Cache.t) ->
  set_cache:(Cache.t -> unit) ->
  ?id:Json.t ->
  Protocol.cache_action ->
  [ `Reply of string | `Error of Protocol.error_code * string ]
(** The [cache] op (info/clear/save/load), parameterised over the
    caller's locking discipline for reading/replacing the cache. *)

val load_or_create_cache : Config.t -> Cache.t
(** Startup cache: load [cache_file] when present, warn + start cold on
    a corrupt one, create fresh otherwise. *)

val bind_listen_socket : Config.t -> Unix.file_descr
(** Unlink a stale socket file, then bind + listen. Raises
    [Unix.Unix_error] when the socket cannot be bound. *)

val save_cache_at_exit : Config.t -> Cache.t -> unit
(** Persist to [cache_file] when configured; log, never raise. *)
