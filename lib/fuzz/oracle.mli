(** The cross-router oracle stack.

    One generated circuit is routed through every router — CODAR, SABRE,
    the layered A* mapper and the verbatim seed reference — and each
    result must clear the full stack of independent correctness checks:

    - {b route}: the router terminates without raising;
    - {b verify}: {!Schedule.Verify.check_all} — hardware legality,
      timing validity and commutation-respecting semantic equivalence;
    - {b sim-equiv}: {!Sim.Equiv.routed_equivalent} — exact statevector
      equivalence up to the final-layout permutation (measure-free
      circuits on devices small enough to simulate);
    - {b codar-vs-reference}: the production CODAR router must emit an
      event stream identical to the seed reference implementation;
    - {b qasm-roundtrip}: print → parse is the identity and
      print → parse → print is byte-stable;
    - {b fingerprint}: the {!Cache.Fingerprint} of the circuit equals the
      fingerprint of its printed-and-reparsed self (canonicalisation
      cannot be fragmented by formatting). *)

type router = Codar | Sabre | Astar | Reference

val all_routers : router list
(** In fixed order: CODAR, SABRE, A*, reference. *)

type failure = {
  oracle : string;  (** which check failed, e.g. ["verify"] *)
  router : router option;  (** [None] for circuit-level oracles *)
  detail : string;
}

val pp_failure : Format.formatter -> failure -> unit

type report = {
  failures : failure list;  (** empty iff the case passed *)
  sim_checked : bool;  (** the statevector oracle was applicable and ran *)
  checks : int;  (** number of individual oracle executions *)
}

val passed : report -> bool

val check_routed :
  ?sim_max_qubits:int ->
  maqam:Arch.Maqam.t ->
  original:Qc.Circuit.t ->
  router:router ->
  Schedule.Routed.t ->
  failure list * bool
(** The per-result checks (verify + sim-equiv) on an already-routed
    result; the [bool] reports whether the statevector oracle ran.
    Exposed so tests can prove the oracle rejects tampered schedules. *)

val check_objective :
  ?sim_max_qubits:int ->
  maqam:Arch.Maqam.t ->
  objective:Objective.t ->
  Qc.Circuit.t ->
  failure list * int
(** One CODAR pass under [objective], checked against verify + sim-equiv
    (the codar-vs-reference differential is makespan-only and does not
    apply). Failures are named ["objective-<name>"] (routing trouble) or
    ["objective-<name>:<check>"]; the [int] counts oracle executions. *)

val check :
  ?sim_max_qubits:int ->
  ?routers:router list ->
  maqam:Arch.Maqam.t ->
  Qc.Circuit.t ->
  report
(** Run the full stack. [sim_max_qubits] (default 10) bounds the device
    width for the statevector oracle; [routers] defaults to
    {!all_routers}. The circuit is routed from the identity layout so
    CODAR and the reference see byte-identical inputs. *)
