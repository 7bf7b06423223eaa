(** Quantum circuits: an ordered gate sequence over [n_qubits] qubits. *)

type t = private { n_qubits : int; gates : Gate.t list }

val make : n_qubits:int -> Gate.t list -> t
(** Raises [Invalid_argument] if a gate references a qubit outside
    [0 .. n_qubits-1], a two-qubit gate repeats an operand, or
    [n_qubits < 0]. *)

val empty : int -> t

val n_qubits : t -> int
val gates : t -> Gate.t list
val gate_array : t -> Gate.t array
val length : t -> int

val append : t -> Gate.t -> t
val concat : t -> t -> t
(** Sequential composition; both circuits must have the same width. *)

val filter_gates : (Gate.t -> bool) -> t -> t

val reverse : t -> t
(** Gate order reversed (used by SABRE's bidirectional initial-mapping pass);
    gates themselves are not inverted. *)

val inverse : t -> t option
(** The inverse circuit (reversed order, each gate inverted), or [None] when
    a non-unitary gate is present. *)

val used_qubits : t -> int list
(** Sorted list of qubits referenced by at least one gate. *)

val two_qubit_gates : t -> Gate.t list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
