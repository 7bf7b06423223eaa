(** Request resolution and the timed routing job behind both the daemon
    and [codar_cli map]/[batch] — one code path, one record schema.

    Resolution ({!spec_of_route_req}) and routing ({!route}) are
    deterministic: equal requests produce equal records except for the
    [wall_s] field, which is measured — the daemon therefore caches the
    whole record and replays it rather than recomputing. *)

type spec = {
  source_name : string;
      (** provenance only — deliberately {e not} part of {!fingerprint} *)
  circuit : Qc.Circuit.t;
  maqam : Arch.Maqam.t;
  router : [ `Codar | `Sabre | `Astar | `Portfolio ];
  placement : Placement.strategy;
  objectives : Objective.t list;
      (** non-empty; the head drives [`Codar], the whole list cycles over
          portfolio restarts *)
  metric : Codar.Portfolio.metric;  (** portfolio selection metric *)
  restarts : int;
  seed : int;
  collect_stats : bool;
}

val durations_of_name : string -> Arch.Durations.t option
(** ["sc"], ["superconducting"], ["ion"], ["ion-trap"], ["atom"],
    ["neutral-atom"], ["uniform"]. *)

val router_name : [ `Codar | `Sabre | `Astar | `Portfolio ] -> string

val resolve_router :
  router:string ->
  objective:string option ->
  metric:string option ->
  durations:Arch.Durations.t ->
  ( [ `Codar | `Sabre | `Astar | `Portfolio ]
    * Objective.t list
    * Codar.Portfolio.metric,
    string )
  result
(** Resolve a router string (accepting ["codar:t2"]-style inline
    objective sugar) together with the optional [objective]/[metric]
    request fields. Rejects conflicting inline + explicit objectives,
    objectives on sabre/astar, comma lists outside the portfolio, metrics
    outside the portfolio, and the esp metric on uncalibrated duration
    profiles — all as [Error] (the daemon's [bad_request]). *)

val check_restarts : int -> (unit, string) result
(** [Ok ()] for 1..{!Codar.Portfolio.max_restarts} restarts, else the
    refusal {!spec_of_route_req} answers — for every router, the
    portfolio or not. *)

val spec_of_route_req : Protocol.route_req -> (spec, string) result
(** Resolve names to live structures, parse inline QASM (errors become
    [Error], never exceptions), and validate that the circuit fits the
    device. Benchmark circuits are forced under a lock — safe from
    concurrent connection threads. *)

val fingerprint : spec -> string
(** {!Cache.Fingerprint.compute} over the resolved spec. *)

val request_key : Protocol.route_req -> string
(** The request-memo key ({!Cache.find_memo}): the QASM text or benchmark
    name and every option, unparsed. Equal keys resolve to equal specs;
    texts that differ in any byte get distinct keys. *)

val route_with : spec -> (Report.Record.t -> Schedule.Timeline.t -> 'a) -> 'a
(** Compute the initial placement and route, timing the job up to the
    schedule's hand-over into the record's [wall_s], and return [k] applied
    to the record and the schedule. A CODAR schedule is lent from the
    domain's working arrays ({!Codar.Remapper.route}): [k] reads it in
    place and keeps nothing of it but a {!Schedule.Timeline.copy}. May
    raise (router/placement internal errors); the daemon converts that
    into a [route_failed] reply. *)

val route : spec -> Report.Record.t * Schedule.Routed.t
(** {!route_with}, keeping the schedule in list form. *)

val record : spec -> Report.Record.t
(** {!route_with}, keeping the record alone — the daemon's route: no
    word per event. *)

val route_plain :
  ?stats:Codar.Stats.t ->
  ?objective:Objective.t ->
  [ `Codar | `Sabre | `Astar ] ->
  Arch.Maqam.t ->
  Arch.Layout.t ->
  Qc.Circuit.t ->
  Schedule.Routed.t
(** One bare routing pass with a fixed initial layout (used by
    [codar_cli map --compare]). [objective] (default makespan) applies to
    [`Codar] only. *)
