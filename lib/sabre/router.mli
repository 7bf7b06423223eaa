(** SABRE — the SWAP-based bidirectional heuristic router of Li, Ding & Xie
    (ASPLOS 2019), the "best-known algorithm" CODAR is compared against
    (paper §V).

    Faithful to the original: a dependency-DAG front layer (no commutativity,
    no notion of time), a look-ahead heuristic

    {v H = decay(swap) · ( Σ_{g∈F} D[π(g)]/|F| + W · Σ_{g∈E} D[π(g)]/|E| ) v}

    minimised over the SWAPs incident to the front gates' physical qubits,
    with per-qubit decay factors discouraging consecutive SWAPs on the same
    qubit. The emitted order is duration-{e un}aware; the caller scores it
    with {!Schedule.Asap} under the device's real durations.

    The front is maintained incrementally: pending-predecessor counts per
    gate, the front kept in ascending gate order, and the extended set
    rebuilt only when gates issue. The DAG and all per-gate scratch live in
    flat arrays, one set per domain, reused across routes. *)

type config = {
  extended_size : int;  (** look-ahead window |E| (default 20) *)
  extended_weight : float;  (** W (default 0.5) *)
  decay_delta : float;  (** per-use decay increment (default 0.001) *)
  decay_reset : int;  (** reset decay every this many SWAPs (default 5) *)
}

val default_config : config

exception Stuck of string

val run :
  ?config:config ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Schedule.Routed.t
(** Route and then ASAP-schedule with the machine's durations, so results
    are directly comparable with CODAR's. *)

val route_gates :
  ?config:config ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Qc.Gate.t list * Arch.Layout.t
(** The raw physical gate sequence and final layout. *)

val final_layout :
  ?config:config ->
  ?reverse:bool ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Arch.Layout.t
(** The final layout alone, built without the gate sequence: the
    reverse-traversal initial-mapping pass needs layouts only. With
    [reverse] (default [false]) the circuit's gates are routed last to
    first, as for {!Qc.Circuit.reverse}[ circuit]. *)
