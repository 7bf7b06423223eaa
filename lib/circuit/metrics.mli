(** Static circuit metrics.

    [weighted_depth] is the paper's figure of merit: the length of the
    critical path when every gate costs its hardware duration. On an
    unrouted circuit it is a lower bound for any routed execution. *)

val depth : Circuit.t -> int
(** Critical-path length with unit gate durations. *)

val weighted_depth : weight:(Gate.t -> int) -> Circuit.t -> int
(** [Dag.critical_path_length (Dag.of_circuit c) ~weight], computed in one
    pass with a per-qubit ready-time array instead of a DAG. *)

val finish_time : int array -> Gate.t -> int -> int
(** [finish_time ready g w]: the step of that pass. [g] finishes [w]
    after the latest of its qubits' [ready] times (at [w] when it has no
    qubits), and its qubits become ready then; returns the finish time.
    [ready] starts at zeros, one entry per qubit. *)

val gate_count : Circuit.t -> int
val two_qubit_count : Circuit.t -> int
val swap_count : Circuit.t -> int

val count_by_name : Circuit.t -> (string * int) list
(** Gate histogram keyed by {!Gate.name}, sorted by name. *)
