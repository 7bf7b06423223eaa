(** As-soon-as-possible timeline scheduling.

    Given a physical gate sequence in program order and a duration profile,
    every gate starts as soon as all its qubits are free. This is how the
    duration-{e unaware} baseline (SABRE) is scored with duration weights:
    its output order is fixed, the clock merely replays it. A [Barrier]
    fences its qubits (all qubits when its list is empty) at zero cost. *)

val timeline :
  durations:Arch.Durations.t ->
  n_physical:int ->
  initial:Arch.Layout.t ->
  final:Arch.Layout.t ->
  n_logical:int ->
  (Qc.Gate.t * bool) list ->
  Timeline.t
(** The timed events of a physical gate sequence, in its order, each
    tagged [true] when the router inserted it (a SWAP), in exact-size
    arrays, bracketed by the given layouts. *)
