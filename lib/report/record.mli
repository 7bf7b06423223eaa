(** One machine-readable routing result.

    The single schema behind [codar_cli map --json], every per-job record of
    [codar_cli batch], and the smoke checks — so the three can never drift
    apart. A record captures what the paper measures (weighted depth) plus
    what an engineer consuming batches needs (raw depth, SWAP count, wall
    time, router instrumentation). *)

type portfolio = {
  restarts : int;
  winner : int;  (** restart index whose route was kept *)
  scores : int array;  (** weighted depth per restart, by restart index *)
  metric : string;  (** selection metric that picked the winner *)
  metric_scores : float array;  (** metric value per restart *)
  objectives : string array;  (** objective per restart (mixed membership) *)
}

type t = {
  source : string;  (** benchmark name or QASM path *)
  arch : string;
  n_physical : int;
  durations : string;
  router : string;
  placement : string;
  objective : string;  (** routing objective ("makespan" for non-CODAR) *)
  n_qubits : int;
  gates : int;  (** original gate count *)
  unrouted_weighted_depth : int;  (** lower bound for any routing *)
  weighted_depth : int;  (** the routed makespan — the paper's metric *)
  raw_depth : int;  (** unit-duration depth of the routed circuit *)
  events : int;
  swaps : int;  (** router-inserted SWAPs *)
  esp : float option;
      (** {!Sim.Reliability.estimated_success}, when the duration profile
          has calibration data — the cross-objective comparison column *)
  wall_s : float;  (** routing wall-clock time, seconds *)
  stats : Codar.Stats.t option;  (** CODAR instrumentation, when collected *)
  portfolio : portfolio option;
}

val of_timeline :
  source:string ->
  router:string ->
  placement:string ->
  ?objective:string ->
  wall_s:float ->
  ?stats:Codar.Stats.t ->
  ?portfolio:portfolio ->
  maqam:Arch.Maqam.t ->
  original:Qc.Circuit.t ->
  Schedule.Timeline.t ->
  t
(** Derives every circuit/schedule field from [original] and the routed
    schedule, read in place in one pass. [objective] defaults to
    ["makespan"]; [esp] is derived from the maqam's calibration preset
    when one exists (linear, as {!Sim.Reliability.estimate}'s [esp]). *)

val make :
  source:string ->
  router:string ->
  placement:string ->
  ?objective:string ->
  wall_s:float ->
  ?stats:Codar.Stats.t ->
  ?portfolio:portfolio ->
  maqam:Arch.Maqam.t ->
  original:Qc.Circuit.t ->
  Schedule.Routed.t ->
  t
(** {!of_timeline} on a list-form schedule. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}, for cache persistence and service clients.
    [to_json] is deterministic, so [of_json] ∘ [to_json] round-trips to a
    byte-identical re-serialisation (the derived [cf_hit_rate] field is
    recomputed, not stored). *)
