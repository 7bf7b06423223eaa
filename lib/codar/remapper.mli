(** The CODAR remapping algorithm (paper §IV-C, Fig. 4).

    An event-driven simulation of the device timeline. At each decision time
    [t] the remapper

    + computes the Commutative Front of the unissued gate sequence;
    + issues every CF gate whose qubits are all lock-free and — for
      two-qubit gates — currently adjacent under the layout (updating each
      operand's qubit lock to [t + duration]);
    + for the remaining CF two-qubit gates, collects the lock-free coupling
      edges incident to their physical endpoints as candidate SWAPs and
      greedily issues the highest-priority one while a candidate's
      [Hbasic] exceeds the objective's issue threshold (0: a positive
      [Hbasic], the paper's rule), pruning candidates whose qubits get
      locked;
    + advances [t] to the next lock-expiry; if instead every qubit is free
      and nothing could be issued ("deadlock", §IV-D), force-issues the best
      SWAP even with non-positive priority, preferring one that shortens the
      oldest pending gate. Each forced SWAP shortens that pair by one, but
      later greedy SWAPs may undo it, so progress is not guaranteed: the
      swap budget below is the only bound (see the stall-valve item in
      ROADMAP.md).

    The emitted events carry their start times; the makespan is the weighted
    depth the paper reports.

    The route runs in its domain's working arrays ({!Schedule.Scratch}):
    the gate, lock and event arrays, the {!Cf_front} tracker, the
    {!Qc.Commute.Compiled} tables and the {!Swap_scorer}, all loaded with
    this route instead of built for it. The schedule is written into the
    same set, four words per event in {!Schedule.Timeline}'s arrays, and
    lent to the caller: once the domain has routed a circuit at least as
    large, a route allocates its layouts and no word per gate or event. *)

type config = {
  window : int;
      (** CF scan window over unissued gates; the per-qubit commute-chain
          bound is {!Cf_front.create}'s default, 20 *)
  use_commutativity : bool;
      (** [false] degrades the CF front to a plain DAG front (ablation) *)
  use_fine : bool;  (** [false] disables the [Hfine] tiebreak (ablation) *)
  objective : Objective.t;
      (** routing objective: the issue threshold
          ({!Objective.issue_min}), computed once per route from the
          device's durations. {!Objective.makespan} is the paper's rule;
          every objective ranks candidates by Hbasic, then Hfine. *)
}

val default_config : config
(** [{ window = 200; use_commutativity = true; use_fine = true;
      objective = Objective.makespan }] *)

exception Stuck of string
(** Raised when the safety bound on inserted SWAPs is exceeded — indicates
    an unroutable input (e.g. a two-qubit gate on a disconnected device). *)

val route :
  ?config:config ->
  ?stats:Stats.t ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  (Schedule.Timeline.t -> 'a) ->
  'a
(** [route ~maqam ~initial circuit k] routes [circuit] onto the machine
    starting from [initial] and returns [k] applied to the schedule. The
    schedule's arrays are the domain's working arrays: they hold the route
    until [k] returns and are reused after, so [k] reads them in place and
    keeps nothing of them but a {!Schedule.Timeline.copy}. [k] must not
    route with CODAR itself. Raises [Invalid_argument] when the circuit is
    wider than the device or the layout widths disagree; {!Stuck} on
    unroutable inputs. Safe from several domains and several systhreads at
    once.

    [stats], when given, accumulates {!Stats} instrumentation counters for
    this run (counters are not reset first, so one record can aggregate
    several runs). *)

val run :
  ?config:config ->
  ?stats:Stats.t ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Schedule.Routed.t
(** {!route} to the list form ({!Schedule.Timeline.to_routed}). *)
