(** Gate commutation test.

    CODAR's Commutative-Front detection (paper §IV-B) needs a fast, exact
    answer to "do these two gates commute?". Gates on disjoint qubits always
    commute. For gates sharing qubits the checks run in order: cheap
    sufficient rules (Z-basis-diagonal vs X-basis-diagonal structure per
    shared qubit), the Z-phase rule (an rz or u1 whose angle is not within
    1e-6 of a multiple of 2π does not commute with x, y, h or a cx target on
    its qubit), a fixed-size table of verdicts for parameter-free pairs,
    and finally the exact matrix commutator. *)

val commutes : Gate.t -> Gate.t -> bool
(** [commutes a b] is [true] iff the two gates commute as operators.
    Non-unitary gates ([Barrier], [Measure]) commute only with gates on
    disjoint qubits. Keeps no state but the fixed-size parameter-free
    table: a parametrised pair that reaches the exact check pays for its
    matrices on every call. *)

val memoised : unit -> Gate.t -> Gate.t -> bool
(** [memoised ()] is a fresh [commutes] that also memoises the exact check
    of parametrised pairs, up to qubit relabelling. Its memo lives as long
    as the returned function: take one per route or verification. *)

(** A per-route checker over the indices of one gate array. *)
module Compiled : sig
  type t

  val make : Gate.t array -> t
  (** [make gates] precomputes, once, each gate's operands, Z/X-basis
      bits, Z-phase and flip flags and parameter-free code, and takes a
      fresh exact-check memo like {!memoised}'s. O(gates). *)

  val commutes : t -> int -> int -> bool
  (** [commutes c i j] = [memoised () gates.(i) gates.(j)]: the same
      steps in the same order (rules, Z phase, the shared parameter-free
      table, the memoised exact check), read from the precomputed arrays.
      [Gate.equal] runs only for pairs whose kinds and operands match. *)
end

val commutes_by_rule : Gate.t -> Gate.t -> bool option
(** The fast path only: [Some b] when a structural rule decides, [None] when
    the later checks would be consulted. Exposed for tests and ablation. *)
