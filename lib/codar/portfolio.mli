(** Random-restart routing portfolio (SABRE-style, Li et al. ASPLOS 2019).

    Initial mapping dominates routed depth, and good layouts are cheap to
    try: route the same circuit from [restarts] independent initial layouts
    and keep the best result. The restarts are embarrassingly parallel, so
    they fan out over a {!Pool.t} — and stay {e deterministic}:

    - restart 0 always uses the caller's [initial] layout unchanged and the
      {e first} objective of the membership (the portfolio can never do
      worse than the single-shot baseline under the selection metric);
    - restart [k > 0] draws a uniformly random layout from an RNG seeded by
      [(seed, k)] — a pure function of the restart index, never of
      scheduling — optionally refined by [refine] (e.g. a SABRE reverse
      traversal via {!Sabre.Initial_mapping.reverse_traversal}'s [initial]);
    - with a mixed-objective membership (PR 8), restart [k] routes under
      objective [k mod length objectives] — again a pure function of the
      index;
    - the winner optimises [(selection metric, restart index)], so ties
      break identically for every [--jobs]; ESP restarts are compared by
      the logarithm of their estimate, which a long schedule does not
      underflow.

    Restart routes are not instrumented: {!Stats.t} counters are plain
    mutable fields and must not be bumped from several domains. *)

type metric = Makespan | Esp | Depth
    (** What "best" means across restarts: minimal weighted depth
        (the paper's metric), maximal estimated success probability
        ({!Sim.Reliability}, needs a calibrated duration profile), or
        minimal raw (unit-duration) depth. *)

val metric_name : metric -> string
val metric_names : string list
val metric_of_name : string -> metric option

type outcome = {
  routed : Schedule.Timeline.t;  (** the winning route *)
  winner : int;  (** restart index of [routed] *)
  objectives : Objective.t array;
      (** objective used by each restart, indexed by restart *)
  metric : metric;  (** the selection metric that picked [winner] *)
  scores : int array;  (** weighted depth per restart, indexed by restart *)
  metric_scores : float array;
      (** selection-metric value per restart ([= float scores] under
          {!Makespan}); under {!Esp} the linear estimate, while the
          restarts are ranked by its logarithm, which does not underflow
          ({!Sim.Reliability.estimate}) *)
}

val max_restarts : int
(** The most restarts one run may ask for: 64. Each restart is one full
    CODAR route, so the bound keeps a request's cost a small multiple of
    a single route. *)

val run :
  ?pool:Pool.t ->
  ?config:Remapper.config ->
  ?restarts:int ->
  ?seed:int ->
  ?refine:(Arch.Layout.t -> Arch.Layout.t) ->
  ?objectives:Objective.t list ->
  ?metric:metric ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  outcome
(** [run ~maqam ~initial circuit] routes [restarts] (default 8, in
    [1..max_restarts]) layouts — sequentially when [pool] is absent, which is
    output-identical to any pool — and returns the deterministic winner
    under [metric] (default {!Makespan}).

    [objectives] (default: the [config]'s objective alone) cycles over the
    restarts; [seed] defaults to 0. Raises [Invalid_argument] when [metric]
    is {!Esp} and the device's duration profile has no calibration preset
    or [restarts] is out of range; otherwise raises like
    {!Remapper.run}. *)
