(** Initial-mapping strategies.

    "Initial mapping has been proved to be significant for the qubit mapping
    problem" (paper §V-A). The evaluation uses SABRE's reverse traversal for
    both routers; this module additionally provides the classic cheaper
    strategies so the choice can be ablated (`bench/main.exe initmap`). *)

type strategy =
  | Trivial  (** logical [i] on physical [i] *)
  | Random of int  (** uniformly random injective placement, seeded *)
  | Degree_weighted
      (** greedy: most-interacting logical qubits onto a BFS-contiguous
          region grown from the highest-degree physical qubit *)
  | Reverse_traversal of int
      (** SABRE's forward+backward passes, [k] iterations *)

val all : strategy list
(** One representative of each (seed 7, one reverse-traversal pass). *)

val name : strategy -> string

val max_passes : int
(** The most reverse-traversal passes a name may ask for: 64. A pass over
    a 30k-gate circuit on Sycamore-54 costs about 0.09 s, so the bound
    keeps what one request's placement costs within seconds. *)

val of_name : string -> strategy option
(** ["trivial"], ["random"], ["random-<seed>"], ["degree"], ["sabre"],
    ["sabre-<k>"]. A seed is ASCII digits with at most one leading ['-'];
    [k] is ASCII digits in [1..max_passes]. The [name] of every seed and
    of every [k] in that range reads back. *)

val interaction_counts : Qc.Circuit.t -> int array
(** Per logical qubit, the number of two-qubit gates touching it. *)

val compute :
  strategy -> maqam:Arch.Maqam.t -> Qc.Circuit.t -> Arch.Layout.t
(** Raises [Invalid_argument] when the circuit is wider than the device. *)
