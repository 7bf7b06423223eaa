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

(** A per-route checker over the indices of one gate array. Its arrays
    outlive the route: a router keeps one checker per domain and
    {!load}s each route's gates into it, so a route allocates no
    per-gate array once its domain has seen a circuit as long. *)
module Compiled : sig
  type t

  val empty : unit -> t
  (** A checker with no gates and no arrays yet. *)

  val load : t -> Gate.t array -> int -> unit
  (** [load c gates n] points [c] at [gates.(0 .. n - 1)]: it precomputes,
      once, each gate's operands, Z/X-basis bits, Z-phase and flip flags
      and parameter-free code, and empties the exact-check memo, which
      then lives until the next {!load} or {!clear} — one route, like
      {!memoised}'s. O(n); the arrays grow geometrically. *)

  val clear : t -> unit
  (** Drop the gates and the memo; the arrays stay for the next
      {!load}. *)

  val words : t -> int
  (** Words held by the per-gate arrays. *)

  val commutes : t -> int -> int -> bool
  (** [commutes c i j] = [memoised () gates.(i) gates.(j)]: the same
      steps in the same order (rules, Z phase, the shared parameter-free
      table, the memoised exact check), read from the precomputed arrays.
      Two gates of one parameter-free kind on the same operands are
      equal without a call; [Gate.equal] runs only for parametrised pairs
      whose kinds and operands match. *)
end

