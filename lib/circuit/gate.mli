(** Quantum gates over integer-indexed qubits.

    Gates are the atoms of every circuit in this library. Qubit indices are
    plain [int]s; whether they denote logical or physical qubits depends on
    context (a router input is logical, its output physical). *)

(** Single-qubit gate kinds. Angles are in radians. *)
type one_qubit =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float
  | U1 of float
  | U2 of float * float
  | U3 of float * float * float

(** Two-qubit gate kinds. [XX] is the Mølmer–Sørensen interaction native to
    ion traps; [Rzz] appears in QAOA-style workloads. *)
type two_qubit =
  | CX
  | CZ
  | Swap
  | XX of float
  | Rzz of float

type t =
  | One of one_qubit * int
  | Two of two_qubit * int * int
  | Barrier of int list  (** scheduling fence over the listed qubits *)
  | Measure of int * int  (** [Measure (q, c)]: qubit [q] into classical bit [c] *)

val qubits : t -> int list
(** Qubits the gate acts on, in operand order. *)

val is_two_qubit : t -> bool
(** [true] exactly for [Two _] gates — the ones constrained by coupling. *)

val is_swap : t -> bool

val is_unitary : t -> bool
(** [false] for [Barrier] and [Measure]. *)

val name : t -> string
(** Lower-case OpenQASM-style mnemonic, e.g. ["cx"], ["rz"]. *)

val remap : (int -> int) -> t -> t
(** [remap f g] renames every qubit operand through [f]. *)

val params : t -> float list
(** The gate's rotation angles in declaration order; [[]] for
    non-parametrised gates (and for [Barrier]/[Measure]). *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints OpenQASM-like text, e.g. [cx q[0], q[3]]. *)

val to_string : t -> string

(** {2 Convenience constructors} *)

val i : int -> t
val x : int -> t
val y : int -> t
val z : int -> t
val h : int -> t
val s : int -> t
val sdg : int -> t
val t : int -> t
val tdg : int -> t
val rx : float -> int -> t
val ry : float -> int -> t
val rz : float -> int -> t
val u1 : float -> int -> t
val u2 : float -> float -> int -> t
val u3 : float -> float -> float -> int -> t
val cx : int -> int -> t
val cz : int -> int -> t
val swap : int -> int -> t
val xx : float -> int -> int -> t
val rzz : float -> int -> int -> t
val barrier : int list -> t
val measure : int -> int -> t

(** {2 Commutation-structure predicates}

    Sufficient conditions used by the fast path of {!Commute.commutes}:
    a gate is {e diagonal} on a qubit when its action there is diagonal in
    the Z basis (phases, CZ/Rzz on either operand, CX on its control), and
    {e X-like} when diagonal in the X basis (X, Rx, XX on either operand,
    CX on its target). *)

val diagonal_on : t -> int -> bool
val x_like_on : t -> int -> bool

val inverse : t -> t option
(** Inverse gate, when the gate is unitary. [Barrier]/[Measure] yield [None]. *)
