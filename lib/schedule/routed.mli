(** The result of routing a logical circuit onto a device: a timed sequence
    of {e physical} gates plus the layouts bracketing it.

    [events] are in issue order (the order the router emitted them); the
    logical meaning of a non-SWAP event is recovered by tracking the layout
    through the preceding SWAPs. [makespan] is the weighted depth — the
    paper's figure of merit. *)

type event = {
  gate : Qc.Gate.t;
  start : int;
  duration : int;
  inserted : bool;
      (** [true] for SWAPs the router added; [false] for program gates
          (including a program's own [Swap] gates, which exchange logical
          states and do {e not} move the layout) *)
}

type t = {
  events : event list;
  initial : Arch.Layout.t;
  final : Arch.Layout.t;
  makespan : int;
  n_logical : int;
}

val finish : event -> int
(** [start + duration]. *)

val swap_count : t -> int
(** Number of router-inserted SWAP events (program [Swap] gates are not
    counted). *)

val gate_count : t -> int

val to_physical_circuit : n_physical:int -> t -> Qc.Circuit.t
(** The untimed physical gate sequence. *)

val events_by_start : t -> event list
(** Stable sort by start time. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
(** A human-readable timeline. *)
