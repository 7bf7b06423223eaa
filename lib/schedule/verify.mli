(** Routed-circuit verification.

    Three independent checks, composable via {!check}:

    - {b Hardware validity}: every two-qubit event runs on coupled physical
      qubits, and no two events overlap in time on the same qubit.
    - {b Timing validity}: every event's duration matches the profile.
    - {b Semantic equivalence}: replaying the events while tracking the
      layout through SWAPs yields a logical gate sequence that is a
      commutation-respecting reordering of the original circuit.

    Each check reads the flat schedule in place and rebuilds every physical
    gate from its stored kind and operands ({!Timeline.gate}): CODAR
    stores the logical gate it issued, and the replay derives the logical
    gate again through its own layout rather than trusting that one.

    Exact state-vector equivalence (for small devices) lives in the [sim]
    library ([Sim.Equiv]); this module is purely combinatorial and scales to
    the full benchmark suite. *)

type error =
  | Not_adjacent of Routed.event
  | Overlap of int * Routed.event * Routed.event  (** qubit, two events *)
  | Bad_duration of Routed.event * int  (** event, expected duration *)
  | Unmatched_logical_gate of Qc.Gate.t
      (** a replayed gate has no legal counterpart left in the original *)
  | Leftover_original_gates of int
  | Bad_final_layout

val pp_error : Format.formatter -> error -> unit

val check_hardware : maqam:Arch.Maqam.t -> Timeline.t -> (unit, error) result

val check_timing : maqam:Arch.Maqam.t -> Timeline.t -> (unit, error) result

val replay_logical : Timeline.t -> (Qc.Gate.t list, error) result
(** The logical gate sequence implied by the events, with SWAPs folded into
    the evolving layout (SWAP events disappear from the output). Also checks
    the recorded final layout matches the replayed one. *)

val check_equivalence :
  original:Qc.Circuit.t -> Timeline.t -> (unit, error) result
(** Greedy commutative matching of the replay against the original. *)

val check :
  maqam:Arch.Maqam.t -> original:Qc.Circuit.t -> Timeline.t ->
  (unit, error) result
(** All three, in the order above. *)

val check_all :
  maqam:Arch.Maqam.t -> original:Qc.Circuit.t -> Routed.t ->
  (unit, error) result
(** {!check} on a list-form schedule ({!Timeline.of_routed}). *)
