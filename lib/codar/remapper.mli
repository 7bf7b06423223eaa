(** The CODAR remapping algorithm (paper §IV-C, Fig. 4).

    An event-driven simulation of the device timeline. At each decision time
    [t] the remapper

    + computes the Commutative Front of the unissued gate sequence;
    + issues every CF gate whose qubits are all lock-free and — for
      two-qubit gates — currently adjacent under the layout (updating each
      operand's qubit lock to [t + duration]);
    + for the remaining CF two-qubit gates, collects the lock-free coupling
      edges incident to their physical endpoints as candidate SWAPs and
      greedily issues the highest-priority one while a positive-[Hbasic]
      candidate remains, pruning candidates whose qubits get locked;
    + advances [t] to the next lock-expiry; if instead every qubit is free
      and nothing could be issued ("deadlock", §IV-D), force-issues the best
      SWAP even with non-positive priority, preferring one that shortens the
      oldest pending gate. Each forced SWAP shortens that pair by one, but
      later greedy SWAPs may undo it, so progress is not guaranteed: the
      swap budget below is the only bound (see the stall-valve item in
      ROADMAP.md).

    The emitted events carry their start times; the makespan is the weighted
    depth the paper reports. *)

type config = {
  window : int;  (** CF scan window over unissued gates *)
  max_chain : int;  (** per-qubit commute-chain bound *)
  use_commutativity : bool;
      (** [false] degrades the CF front to a plain DAG front (ablation) *)
  use_fine : bool;  (** [false] disables the [Hfine] tiebreak (ablation) *)
  objective : Objective.t;
      (** routing objective — candidate ordering + issue threshold
          ({!Objective.makespan} reproduces the paper's Hbasic/Hfine
          exactly) *)
}

val default_config : config
(** [{ window = 200; max_chain = 20; use_commutativity = true;
      use_fine = true; objective = Objective.makespan }] *)

exception Stuck of string
(** Raised when the safety bound on inserted SWAPs is exceeded — indicates
    an unroutable input (e.g. a two-qubit gate on a disconnected device). *)

val run :
  ?config:config ->
  ?stats:Stats.t ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Schedule.Routed.t
(** Route [circuit] onto the machine starting from [initial]. Raises
    [Invalid_argument] when the circuit is wider than the device or the
    layout widths disagree; {!Stuck} on unroutable inputs.

    [stats], when given, accumulates {!Stats} instrumentation counters for
    this run (counters are not reset first, so one record can aggregate
    several runs). *)
