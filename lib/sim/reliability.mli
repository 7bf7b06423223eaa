(** Analytic success-probability estimate for a routed schedule.

    Extends the Fig. 9 comparison to circuits far beyond simulable size:
    the estimated success probability is

    {v  Π_events gate_fidelity(g)  ×  Π_qubits exp(−busy_or_idle(q)/T1) ×
        exp(−busy_or_idle(q)/Tφ)  v}

    — the standard first-order ESP model (Nielsen & Chuang §8; used by
    noise-adaptive mappers). It captures both of the paper's competing
    effects: CODAR inserts {e more} SWAPs (more gate error) but finishes
    {e sooner} (less decoherence). Only qubits that host logical qubits at
    some point contribute decoherence. *)

val estimated_success :
  calibration:Arch.Calibration.t ->
  n_physical:int ->
  Schedule.Routed.t ->
  float
(** Product of per-gate fidelities and per-active-qubit decoherence over the
    schedule's makespan. *)
