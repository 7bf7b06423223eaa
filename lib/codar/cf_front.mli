(** Commutative Front detection (paper Definition 1, §IV-B).

    A gate of the unissued sequence is a {e CF gate} iff it commutes with
    every earlier unissued gate. Gates on disjoint qubits commute trivially,
    so only per-qubit chains of earlier gates need checking; chains carry a
    maintained length so the saturation probe is O(1). Two engineering
    bounds keep this linear in practice: only the first [window] unissued
    gates are scanned ([bench/main.exe ablation] varies it), and a qubit
    whose chain of pending gates exceeds [max_chain] conservatively
    blocks later gates on it (the router keeps the default; the boundary
    tests vary it). *)

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
    bad counts reach zero and CF gates issue; {!front} copies that list
    into an int array stamped with a version. The arrays outlive a gate
    array: the router keeps one tracker per domain and {!load}s each
    route into it, so a tracker allocates only when an array grows
    (geometrically) past every earlier route's. *)

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
(** A tracker over all of [gates]. Same defaults as {!compute}.
    [commutes i j] answers for [gates.(i)] (the earlier gate) and
    [gates.(j)] — a {!Qc.Commute.Compiled.commutes} over [gates] on the
    router's path. The cache starts invalid. *)

val empty : unit -> t
(** A tracker over no gates, with no arrays yet: {!load} it. *)

val load :
  t ->
  window:int ->
  commutes:(int -> int -> bool) ->
  gates:Qc.Gate.t array ->
  issued:bool array ->
  n:int ->
  unit
(** Point the tracker at [gates.(0 .. n - 1)] and [issued.(0 .. n - 1)],
    as {!create} with the default [max_chain] would, keeping its arrays
    where they are large enough. The cache starts invalid. *)

val words : t -> int
(** Words held by the tracker's arrays. *)

val front : ?stats:Stats.t -> t -> int -> int
(** [front t head] brings the front up to date and returns its length
    [len]: [(items t).(0 .. len - 1)] is [compute ~gates ~issued head].
    It is served from the cache when no {!notify_issued}/{!invalidate}
    intervened and [head] is unchanged. Precondition: [head] is the
    first unissued index (the remapper's invariant) — the incremental
    window starts there. [stats], when given, counts the hit/recompute. A
    recompute walks the CF list — O(front), not O(window) — after a full
    O(window × chain) rebuild if {!invalidate} intervened. *)

val items : t -> int array
(** The array {!front} fills, ascending. Only a recomputing {!front}
    writes it — {!notify_issued} and {!invalidate} leave it as it is — so
    a caller may walk it while it issues the gates it lists, as long as
    it does not call {!front} meanwhile. *)

val version : t -> int
(** Bumped by every recompute of {!front} and by nothing else: a front
    with an unchanged version is the same front, so callers key caches
    derived from it on the version. *)

val notify_issued : t -> int -> unit
(** [notify_issued t i]: gate [i] just had its [issued] flag set; update
    the tracked verdicts incrementally. O(slots affected by [i]). When
    [i] is a window gate that is not CF, the events cannot model the
    change and the call is {!invalidate}. *)

val invalidate : t -> unit
(** Discard all tracked state; the next {!front} rebuilds from the shared
    [issued] array. For arbitrary external mutation of [issued] — issue
    paths should prefer {!notify_issued}. O(1). *)
