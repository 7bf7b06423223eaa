(** A routed schedule in flat arrays: the form the routers write, and the
    one {!Verify}, {!Stats}, the run record and the ESP estimate read in
    place.

    Events are in issue order. Event [k], for [0 <= k < length], is four
    words:
    - [gates.(k)]: the gate whose kind and parameters the event applies —
      the circuit's own gate (CODAR stores the logical gate it issued,
      SABRE and A* the physical one), {!inserted_swap} for a SWAP the
      router added, and for a barrier the physical barrier itself (a
      barrier has no parameters, and its qubits do not fit two operands);
    - three words of [data]: its {!start} and {!duration}, and its
      physical qubits ({!operand}), [-1] where it has fewer (a [Measure]
      keeps its classical bit in its gate; a barrier has [-1] twice).

    [data] is bytes, which the garbage collector does not scan: a router
    keeps its event arrays for the next route, and an [int array] as
    large would be marked in every major cycle.

    The arrays may be longer than [length]: CODAR lends its per-domain
    arrays ({!Codar.Remapper.route}), valid until the lending call
    returns; {!copy} keeps one. The list form, {!Routed.t}, is built by
    {!to_routed} for printers, the simulator, the fuzz oracle and tests. *)

type t = {
  length : int;  (** events *)
  gates : Qc.Gate.t array;
  data : Bytes.t;  (** {!bytes_per_event} per event *)
  initial : Arch.Layout.t;
  final : Arch.Layout.t;
  makespan : int;
  n_logical : int;
}

val bytes_per_event : int
(** 24. *)

val start : t -> int -> int
val duration : t -> int -> int

val operand : t -> int -> int -> int
(** [operand t k i]: event [k]'s physical qubit [i] (0 or 1), or [-1]. *)

val write :
  Bytes.t -> int -> start:int -> duration:int -> int -> int -> unit
(** [write data k ~start ~duration a b] stores event [k]'s times and
    operands into [data]. *)

val inserted_swap : Qc.Gate.t
(** The gate of every router-inserted SWAP, told apart from a program
    [Swap] by physical equality. *)

val is_inserted : t -> int -> bool

val swap_count : t -> int
(** Router-inserted SWAPs. *)

val gate : t -> int -> Qc.Gate.t
(** Event [k]'s physical gate, rebuilt from its kind and operands (the
    stored gate itself when its qubits are already those). *)

val unit_finish : int array -> t -> int -> int
(** [unit_finish ready t k]: event [k]'s finish when every gate lasts one
    step, given each physical qubit's ready time in [ready], which it
    advances — [Qc.Metrics.finish_time] on the event's physical gate,
    without building it. *)

val raw_depth : n_physical:int -> t -> int
(** [Qc.Metrics.depth] of the physical gate sequence: the largest
    {!unit_finish}, from all qubits ready at 0. *)

val set_physical :
  Qc.Gate.t array ->
  Bytes.t ->
  int ->
  inserted:bool ->
  Qc.Gate.t ->
  start:int ->
  duration:int ->
  unit
(** [set_physical gates data k ~inserted g ~start ~duration] stores the
    physical gate [g] as event [k] ({!inserted_swap} when [inserted] and
    [g] is a SWAP). For builders from a physical gate sequence: {!Asap}
    and {!of_routed}. *)

val copy : t -> t
(** The events at exactly [length]. *)

val to_routed : t -> Routed.t
(** The list form, event by event; a [Routed.event] is [inserted] exactly
    when its gate here is {!inserted_swap}. Events that apply the same
    parameter-free gate to the same qubits share one gate value. *)

val of_routed : Routed.t -> t
(** The flat form of a list-form schedule. An [inserted] event that is
    not a SWAP is stored as a program gate, as {!Routed.swap_count} and
    {!Verify} read it. *)

val event : t -> int -> Routed.event
(** Event [k] in list form. *)
