(** Commutative Front detection (paper Definition 1, §IV-B).

    A gate of the unissued sequence is a {e CF gate} iff it commutes with
    every earlier unissued gate. Gates on disjoint qubits commute trivially,
    so only per-qubit chains of earlier gates need checking; chains carry a
    maintained length so the saturation probe is O(1). Two engineering
    bounds keep this linear in practice (ablated in [bench/main.exe
    ablation]): only the first [window] unissued gates are scanned, and a
    qubit whose chain of pending gates exceeds [max_chain] conservatively
    blocks later gates on it. *)

val compute :
  ?window:int ->
  ?max_chain:int ->
  commutes:(Qc.Gate.t -> Qc.Gate.t -> bool) ->
  gates:Qc.Gate.t array ->
  issued:bool array ->
  int ->
  int list
(** [compute ~commutes ~gates ~issued head] returns the indices (ascending)
    of CF gates among unissued gates, starting the scan at [head] (callers
    keep [head] at the first unissued index). Defaults:
    [window = 200], [max_chain = 20].

    Passing [commutes = fun _ _ -> false] degrades the CF front to the plain
    dependency-DAG front layer — the ablation knob. *)

(** {1 Incremental front maintenance}

    The front depends only on [(gates, issued, head)] — never on the layout,
    locks or simulated time — so it can be maintained by events instead of
    rescanned. {!t} keeps, for every gate in the window, a per-qubit {e slot}
    carrying a cached verdict: commuting with its whole prefix, blocked (it
    watches its latest non-commuting predecessor, SAT watched-literal
    style), or saturation-blocked (chain position beyond [max_chain]).
    Issuing a gate via {!notify_issued} can only {e relax} later gates'
    conditions, so the update touches just the issued gate's watchers, the
    saturated slots that move back within [max_chain] of a line's start,
    and the single gate admitted at the window tail — O(affected slots),
    not O(window × chain).

    The state is flat: slots are ids into a pool of int arrays, qubit
    lines, watcher lists and each gate's slots are intrusive lists through
    them, and the window's CF gates are an ascending linked list kept as
    bad counts reach zero and CF gates issue. After the first build the
    tracker allocates only when the pool grows and for {!front}'s
    returned list. *)

type t
(** A stateful front tracker over a fixed gate array and issued flags
    (shared by reference with the caller, who mutates [issued]). *)

val create :
  ?window:int ->
  ?max_chain:int ->
  commutes:(int -> int -> bool) ->
  gates:Qc.Gate.t array ->
  issued:bool array ->
  unit ->
  t
(** Same defaults as {!compute}. [commutes i j] answers for [gates.(i)]
    (the earlier gate) and [gates.(j)] — a
    {!Qc.Commute.Compiled.commutes} over [gates] on the router's path.
    The cache starts invalid. *)

val front : ?stats:Stats.t -> t -> int -> int list
(** [front t head] is [compute ~gates ~issued head], served from the cache
    when no {!notify_issued}/{!invalidate} intervened and [head] is
    unchanged. Precondition: [head] is the first unissued index (the
    remapper's invariant) — the incremental window starts there. The
    returned list is physically the cached list ([==]-stable across hits),
    which callers may use to key derived caches. [stats], when given,
    counts the hit/recompute. A recompute walks the CF list — O(front),
    not O(window) — after a full O(window × chain) rebuild if
    {!invalidate} intervened. *)

val notify_issued : t -> int -> unit
(** [notify_issued t i]: gate [i] just had its [issued] flag set; update
    the tracked verdicts incrementally. O(slots affected by [i]). When
    [i] is a window gate that is not CF, the events cannot model the
    change and the call is {!invalidate}. *)

val invalidate : t -> unit
(** Discard all tracked state; the next {!front} rebuilds from the shared
    [issued] array. For arbitrary external mutation of [issued] — issue
    paths should prefer {!notify_issued}. O(1). *)
