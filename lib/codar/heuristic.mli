(** CODAR's two-level SWAP priority (paper §IV-D).

    [Hbasic] (Eq. 1) is the total coupling-distance reduction a candidate
    SWAP brings to the two-qubit gates of the commutative front. [Hfine]
    (Eq. 2) breaks ties on planar devices: it prefers mappings whose pending
    gates have balanced horizontal/vertical distance, maximising the number
    of shortest routing paths kept open. Priorities compare
    lexicographically. *)

type priority = { basic : int; fine : float }

val compare_priority : priority -> priority -> int

val evaluate :
  maqam:Arch.Maqam.t ->
  layout:Arch.Layout.t ->
  cf_pairs:(int * int) list ->
  swap:int * int ->
  priority
(** [evaluate ~maqam ~layout ~cf_pairs ~swap:(p1, p2)] scores swapping
    physical qubits [p1]/[p2]. [cf_pairs] are the logical operand pairs of
    the CF two-qubit gates. [fine] is 0 on devices without coordinates. *)

val evaluate_phys :
  maqam:Arch.Maqam.t ->
  phys_pairs:(int * int) list ->
  swap:int * int ->
  priority
(** Like {!evaluate} but over already-resolved physical endpoint pairs —
    the remapper's hot path, which resolves the CF pairs once per
    (front, layout) and scores every candidate edge against the cached
    resolution instead of re-walking the layout per candidate.

    Distances are read raw from {!Arch.Coupling.distance_table}; a pair
    whose endpoints lie in disconnected components raises [Invalid_argument]
    (there is no [max_int] sentinel to leak into the arithmetic — the
    remapper rejects such placements with a typed [Stuck] before scoring).

    The float fold over [phys_pairs] runs in list order and must stay
    bit-identical across revisions: [fine] values are compared for exact
    equality by the tie-breaking logic, and the routed output is pinned
    byte-for-byte against the reference router. *)

val fine_phys :
  coords:(float * float) array option ->
  pa:int array ->
  pb:int array ->
  n_pairs:int ->
  u:int ->
  v:int ->
  float
(** The [fine] of [evaluate_phys] for the SWAP [(u, v)] over the pairs
    [(pa.(k), pb.(k))], [k < n_pairs], in that order: the same float
    fold, so the result is bit-identical. [0.] without coordinates. *)
