(** Wire protocol of the routing daemon: newline-delimited JSON frames.

    One JSON object per line in each direction. Requests carry an ["op"]
    and an optional ["id"] (any JSON value, echoed in the reply). Replies
    are compact single-line JSON: [{"ok":true,"op":…,…}] or
    [{"ok":false,"code":…,"error":…}]. A [route] reply is a {e pure
    function of the request content} — fingerprint + record, no
    timestamps, no cached flag — so replaying a request yields
    byte-identical bytes whether it was computed or served from cache.
    See docs/SERVICE.md for the full schema. *)

type route_req = {
  source : [ `Bench of string | `Qasm of string ];
  arch : string;  (** device name, {!Arch.Devices.by_name} *)
  durations : string;  (** profile name: sc, ion, atom, uniform *)
  router : string;  (** codar, sabre, astar, portfolio *)
  placement : string;  (** {!Placement.of_name} *)
  objective : string option;
      (** routing objective ({!Objective.of_name}): one name for codar,
          optionally a comma list for the portfolio; [None] = the
          router's default (makespan). [router = "codar:t2"] sugar is
          also accepted and resolved by {!Engine.spec_of_route_req}. *)
  metric : string option;
      (** portfolio selection metric: makespan, esp or depth;
          [None] = makespan *)
  restarts : int;  (** portfolio restarts *)
  seed : int;  (** portfolio RNG seed *)
  collect_stats : bool;  (** embed router instrumentation in the record *)
}

type cache_action =
  | Info
  | Clear
  | Save of string option  (** path override, else the daemon's default *)
  | Load of string option

type request =
  | Ping
  | Route of route_req
  | Batch of route_req list
  | Stats
  | Cache of cache_action
  | Shutdown

type error_code =
  | Parse  (** frame is not valid JSON *)
  | Bad_request  (** valid JSON, invalid request shape or option value *)
  | Unknown_op
  | Oversized  (** frame exceeded the daemon's request size limit *)
  | Route_failed  (** the router raised on this request *)
  | Io  (** cache file save/load failure *)
  | Deadline_exceeded
      (** the request outlived the daemon's [--timeout-ms]: a stalled
          mid-frame client, or a route that waited or computed too long *)
  | Overloaded
      (** the dispatch queue was full on arrival; retry with backoff
          ({!Client.request_with_retry}) *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

val parse_frame :
  string ->
  ( Report.Json.t option * request,
    Report.Json.t option * error_code * string )
  result
(** Decode one request line. Strict: unknown keys are [Bad_request] (a
    typo'd option must not silently route — and cache — the wrong
    request). The ["id"] value is returned on both paths whenever the
    frame was at least a JSON object. *)

val ok_frame : ?id:Report.Json.t -> op:string -> (string * Report.Json.t) list -> string
(** Success reply line (no trailing newline): [ok], [op], the echoed
    [id] when present, then [payload] — in exactly that order, so equal
    payloads give equal bytes. *)

val error_frame : ?id:Report.Json.t -> error_code -> string -> string

val frame_ok : string -> bool
(** Whether a reply line carries ["ok":true]. Every reply the daemon
    writes opens with its [ok] field, so the servers count replies by it:
    a refused or failed [route] is an error whichever path answered it. *)

val route_payload :
  fingerprint:string -> Report.Record.t -> (string * Report.Json.t) list
(** The payload of a [route] reply or one [batch] result item. *)

val cache_counters_to_json : Codar.Stats.cache -> Report.Json.t

(** Defaults applied to omitted route-request keys (matching
    [codar_cli map]). *)

val default_durations : string
val default_placement : string
val default_restarts : int
val default_seed : int
