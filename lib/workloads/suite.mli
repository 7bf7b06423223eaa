(** The 71-benchmark evaluation suite (paper §V-c).

    The paper collects 71 circuits from IBM Qiskit's GitHub, RevLib, ScaffCC,
    Quipper and the SABRE artefact, 3 qubits to 36 qubits and up to ~30 000
    gates; exactly three use 36 qubits and are run only on Google Q54. We
    regenerate the same families and size envelope with {!Builders};
    circuits are lazy so the 30 000-gate instance is only built on demand. *)

type entry = {
  name : string;
  family : string;
  n_qubits : int;
  circuit : Qc.Circuit.t Lazy.t;
}

val all : entry list
(** Exactly 71 entries, in ascending qubit order (as plotted in Fig. 8). *)

val large : entry list
(** The large-scale tier: 64–128-qubit circuits up to ~100 000 gates
    (GHZ-128, QFT-64, BV-128, a 12-layer QAOA-100 and two random
    circuits), sized for the 100–400-qubit grid and heavy-hex devices. Kept
    separate so {!all} stays at the paper's 71 benchmarks; ascending
    qubit order. *)

val find : string -> entry option
(** Searches {!all} and {!large}. *)

val fitting : max_qubits:int -> entry list
(** The entries with [n_qubits <= max_qubits] — e.g. [fitting ~max_qubits:16]
    is the 68-benchmark subset used on the three smaller devices. *)
