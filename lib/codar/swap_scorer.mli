(** Incremental SWAP candidate scoring (PR 6 tentpole).

    Maintains the CODAR router's candidate-SWAP set and [Hbasic] priorities
    across the SWAPs of one decision cycle by {e repair} instead of
    regeneration: a committed SWAP [(x,y)] touches only the candidates
    around [x], [y], and the far endpoints of CF pairs incident to them —
    each repaired in O(incident pairs) via a per-physical-qubit incidence
    index over the flat {!Arch.Coupling.distance_table}. Candidates live in
    a bucketed priority queue (buckets indexed by [Hbasic], which is bounded
    by ±pairs) with lazy deletion, so {!best} is O(1) amortised.

    [Hfine] (the float load-balance term) is deliberately {e not}
    delta-maintained: float summation order changes bit patterns, and the
    routed output must stay byte-identical to the reference router. Fine
    priorities come from {!Heuristic.fine_phys} — {!Heuristic.evaluate_phys}'s
    fold over the same pairs in the same order — and only for candidates
    tied at the maximal [Hbasic].

    The pairs, the per-qubit incidence lists, the bucket queue and the
    active set are int arrays reused across cycles, and {!best},
    {!commit} and {!begin_cycle} return ints or unit: a cycle allocates
    only when one of the arrays grows. They are reused across routes too:
    the remapper keeps one scorer per domain and {!load}s each route into
    it. Neighbours and edge ids come from the device's own
    {!Arch.Coupling.index}, built once per device.

    Selection replicates the reference fold exactly: maximal [Hbasic], then
    maximal [Hfine], then the smallest [(min p, max p)] edge. With
    [use_fine = false] no full evaluation ever runs and ties break on the
    edge directly (equivalent to the reference's all-zero fine).

    Counter contract (see {!Stats}): each incremental (re)scoring bumps
    [swap_rescores]; each candidate activation bumps [swap_candidates];
    each fine evaluation bumps [heuristic_evals]. *)

type t

val empty : unit -> t
(** A scorer with no device and no arrays yet: {!load} it. *)

val load :
  t ->
  issue_min:int ->
  maqam:Arch.Maqam.t ->
  stats:Stats.t ->
  use_fine:bool ->
  locks:int array ->
  unit ->
  unit
(** Point the scorer at a new route: every array large enough for the
    device stays, and no candidate or cycle state of an earlier route
    survives. The scorer holds onto the coupling's distance table and
    edge index. [locks] is the remapper's per-physical-qubit lock array,
    shared by reference and read at candidate-activation time.

    [issue_min] is the route's issue threshold (the routing objective's,
    0 for the paper's rule): a best candidate whose [Hbasic] does not
    exceed it will not be issued, so {!best} skips its [Hfine]
    tie-break. [use_fine = false] disables [Hfine] altogether (the
    ablation flag). *)

val clear : t -> unit
(** Drop the route's device and counters; the arrays stay. *)

val words : t -> int
(** Words held by the scorer's arrays. *)

val begin_cycle : t -> time:int -> pairs:int array -> n_pairs:int -> unit
(** Start a decision cycle at simulated time [time] with the CF two-qubit
    pairs resolved to physical endpoints: pair [k < n_pairs] is
    [(pairs.(2k), pairs.(2k+1))], in front order — fine evaluation folds
    over them in exactly this order. The scorer copies them. Builds the
    incidence index and activates every justified, lock-free candidate
    edge. O(pairs + activated candidates); all per-cycle state from the
    previous cycle is invalidated by epoch, not cleared. *)

val best : t -> int
(** The edge id of the best candidate, or [-1] when no candidate is
    active; {!basic} gives its [Hbasic]. The caller issues the SWAP only
    when that [Hbasic] exceeds the route's [issue_min] (the CODAR rule,
    generalised); either way the candidate stays active until a
    {!commit} deactivates it. *)

val basic : t -> int -> int
(** [basic t e]: the maintained [Hbasic] of the active candidate [e]. *)

val edge_u : t -> int -> int
(** Lower endpoint of edge id [e]. *)

val edge_v : t -> int -> int
(** Higher endpoint of edge id [e]. *)

val commit : t -> int -> int -> unit
(** [commit t x y]: the SWAP [(x,y)] was issued — repair the candidate
    set. Precondition: the caller has already advanced the locks of [x] and
    [y] past [time] (i.e. call it {e after} [issue_swap], never before) and
    updated the layout; the scorer updates its own pair endpoints. *)

val force_best : t -> int
(** Deadlock-escape selection over the currently active candidates: maximal
    distance gain for the oldest pending pair, then ([Hbasic], [Hfine]),
    then the smallest edge — the reference ordering. Valid only when
    nothing was issued or committed since {!begin_cycle} (the only state
    in which the remapper forces a SWAP). An edge id, or [-1] when no
    candidate is active. *)

val candidates : t -> ((int * int) * int) list
(** The active candidate edges with their maintained [Hbasic], sorted by
    edge — for tests asserting incremental/from-scratch agreement; not on
    the router hot path. *)
