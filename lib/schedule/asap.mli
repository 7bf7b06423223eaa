(** As-soon-as-possible timeline scheduling.

    Given a physical gate sequence in program order and a duration profile,
    every gate starts as soon as all its qubits are free. This is how the
    duration-{e unaware} baseline (SABRE) is scored with duration weights:
    its output order is fixed, the clock merely replays it. A [Barrier]
    fences its qubits (all qubits when its list is empty) at zero cost. *)

val schedule :
  durations:Arch.Durations.t ->
  n_physical:int ->
  Qc.Gate.t list ->
  Routed.event list * int
(** Returns the timed events (same order, all tagged as program gates) and
    the makespan. *)

val schedule_tagged :
  durations:Arch.Durations.t ->
  n_physical:int ->
  (Qc.Gate.t * bool) list ->
  Routed.event list * int
(** Like {!schedule} with a per-gate router-inserted tag (see
    {!Routed.event}). *)

val reschedule : durations:Arch.Durations.t -> n_physical:int -> Routed.t -> Routed.t
(** Re-time an existing routed result's issue order with ASAP; useful to
    check a router's native timeline is no worse than plain ASAP replay. *)
