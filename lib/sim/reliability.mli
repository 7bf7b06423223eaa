(** Analytic success-probability estimate for a routed schedule.

    Extends the Fig. 9 comparison to circuits far beyond simulable size:
    the estimated success probability is

    {v  Π_events gate_fidelity(g)  ×  Π_qubits exp(−busy_or_idle(q)/T1) ×
        exp(−busy_or_idle(q)/Tφ)  v}

    — the standard first-order ESP model (Nielsen & Chuang §8; used by
    noise-adaptive mappers). It captures both of the paper's competing
    effects: CODAR inserts {e more} SWAPs (more gate error) but finishes
    {e sooner} (less decoherence). Only qubits that host logical qubits at
    some point contribute decoherence.

    A long schedule's product underflows to [0.]: [rand_16_30k] reads 0 on
    every paper device. Its logarithm, the sum of the logs of the same
    factors, does not, so schedules are ranked by [ln_esp]. *)

type estimate = {
  esp : float;
      (** the product: gate fidelities in event order, then the
          decoherence factors in qubit order *)
  ln_esp : float;  (** the sum of the factors' logarithms *)
}

val estimate :
  calibration:Arch.Calibration.t ->
  n_physical:int ->
  Schedule.Timeline.t ->
  estimate
(** One walk over the flat schedule. *)

(** {2 Parts, for a caller that walks the events itself} *)

val touch : int array -> Schedule.Timeline.t -> int -> unit
(** [touch first t k] lowers the first-activity time in [first] of each
    of event [k]'s physical qubits to its start. [first] starts at
    [max_int] per physical qubit. *)

val decoherence :
  calibration:Arch.Calibration.t -> makespan:int -> int array -> float
(** The product of the decoherence factors of the qubits [first] marks
    active, in qubit order. [esp] is the gate-fidelity product times
    this. *)
