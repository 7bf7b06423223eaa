(** Undirected coupling graph of a quantum device (the [M = (QH, EH)] of the
    paper's maQAM, Table II), with its all-pairs shortest-path matrix [D].

    Two-qubit gates may only execute on qubit pairs joined by an edge.
    Optional planar coordinates per qubit power CODAR's [Hfine] lattice
    tiebreak.

    {!make} computes [D] by BFS into a single flat row-major [int array]
    (see {!distance_table}), so the router hot path pays one
    bounds-checked load per lookup. {!max_qubits} bounds the device, and
    with it the table, at 8 MB. Disconnected pairs are encoded as
    {!unreachable_distance} (-1), a sentinel that cannot wrap additive
    heuristic arithmetic the way the former [max_int] could. *)

type t

val max_qubits : int
(** The largest device {!make} builds: 1024 qubits, whose distance table
    is 8 MB. Edges are bounded at [8 * max_qubits], which admits every
    lattice of that size and complete graphs up to 128 qubits. *)

val make :
  ?coords:(float * float) array -> name:string -> n:int -> (int * int) list ->
  t
(** [make ~name ~n edges] builds the graph and its distance table. Edges
    are undirected; duplicates and self-loops are rejected, as are
    out-of-range endpoints, more than {!max_qubits} qubits and more than
    [8 * max_qubits] edges (all [Invalid_argument]). [coords], when given,
    must have length [n]. *)

val name : t -> string
val n_qubits : t -> int

val edges : t -> (int * int) list
(** Normalised: each as [(lo, hi)], sorted, no duplicates. *)

val neighbors : t -> int -> int list

val degree : t -> int -> int
(** O(1): read from the precomputed degree array. *)

val adjacent : t -> int -> int -> bool
(** Whether [a] and [b] share an edge: their table distance is 1. Raises
    [Invalid_argument] if either endpoint is out of range. *)

val distance : t -> int -> int -> int
(** Shortest path length in edges. Raises [Invalid_argument] if either
    endpoint is out of range {e or the pair is unreachable} (disconnected
    components): callers that can face disconnected devices must guard with
    {!reachable} first. Never returns a sentinel — the former [max_int]
    convention wrapped to garbage inside heuristic arithmetic. *)

val distance_raw : t -> int -> int -> int
(** Like {!distance} but returns {!unreachable_distance} instead of
    raising on disconnected pairs (out-of-range endpoints still raise). *)

val reachable : t -> int -> int -> bool
(** [reachable t a b] is [true] iff a path joins [a] and [b] (every qubit is
    reachable from itself). Raises [Invalid_argument] when out of range. *)

val unreachable_distance : int
(** The sentinel (-1) marking disconnected pairs inside raw rows and
    {!distance_table}. Strictly negative, so [d >= 0] is the reachability
    test. *)

val distance_table : t -> int array
(** The flat row-major [n*n] distance matrix itself: entry [a * n + b] is
    the distance from [a] to [b], or {!unreachable_distance}. Exposed for
    hot loops that index it directly (the routers' and the SWAP scorer's);
    treat it as read-only — it is the live table, not a copy. *)

val rows_cached : t -> int
(** [n]: every distance row exists from {!make} on. *)

val dist_bytes : t -> int
(** Bytes held by the distance table: [word·n²]. *)

val diameter : t -> int
(** The largest {e finite} pairwise distance (0 for the empty or edgeless
    graph; disconnected pairs are ignored rather than poisoning the
    value). Computed at {!make}. *)

val connected : t -> bool
(** Every pair is reachable (true for the empty graph). Computed at
    {!make}. *)

val coords : t -> (float * float) array option
(** Each qubit's layout position, for devices built with one; the
    [Hfine] tie-break reads it. *)

type index = {
  off : int array;
  nbr : int array;
      (** qubit [p]'s neighbours, ascending, are
          [nbr.(off.(p)) .. nbr.(off.(p + 1) - 1)] *)
  eid : int array;
      (** beside [nbr]: the id of that edge, its rank in {!edges} *)
  eu : int array;  (** edge id -> lower endpoint *)
  ev : int array;  (** edge id -> higher endpoint *)
}
(** The graph in flat arrays for hot loops. Ids number the edges
    lexicographically in [(lo, hi)], so the smallest id is the
    lexicographically smallest edge. *)

val index : t -> index
(** Built once by {!make}; treat it as read-only — it is the live index,
    not a copy. *)

val pp : Format.formatter -> t -> unit
