(** Schedule analytics: how well a routed circuit uses the machine.

    The paper's argument is about parallelism — CODAR accepts more SWAPs in
    exchange for a denser schedule. These metrics quantify that trade:
    [parallelism] is the average number of concurrently busy qubits,
    [utilization q] the fraction of the makespan qubit [q] spends busy. *)

type t = {
  makespan : int;
  busy_cycles : int;  (** Σ over events of duration × arity *)
  parallelism : float;  (** busy_cycles / makespan *)
  swap_overhead : float;  (** inserted SWAPs / original gate count *)
  utilization : float array;  (** per physical qubit *)
}

val of_timeline : n_physical:int -> original:Qc.Circuit.t -> Timeline.t -> t
(** Read from the flat schedule in place. *)

val pp : Format.formatter -> t -> unit

val to_csv : Routed.t -> string
(** One line per event: [start,finish,name,qubits] — loadable into any
    plotting tool. *)

val pp_gantt : ?width:int -> n_physical:int -> Format.formatter -> Routed.t -> unit
(** ASCII Gantt chart, one row per physical qubit ([width] columns, default
    72). 1-qubit gates print as [∎], two-qubit gates as [▮], SWAPs as [x],
    idle as [·]. Intended for small examples. *)
