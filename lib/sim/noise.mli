(** Schedule-driven decoherence simulation — our stand-in for the OriginQ
    noisy quantum virtual machine (paper §V-B, Fig. 9).

    The model is the qubit-dephasing + amplitude-damping channel pair of
    Nielsen & Chuang that the paper cites. Noise strength is driven by the
    {e routed timeline}: whenever a qubit sits idle (or is busy under a
    gate) for [Δt] cycles it suffers

    - amplitude damping with [γ = 1 − exp(−Δt / t1)], and
    - pure dephasing with [p = (1 − exp(−Δt / tφ)) / 2], where
      [1/tφ = 1/t2 − 1/(2·t1)].

    Trajectories are unravelled Monte-Carlo-style (quantum-jump): the Kraus
    branch is sampled with its Born probability. Circuits that finish
    earlier decohere less — exactly the effect Fig. 9 demonstrates. *)

type model = { t1 : float; t2 : float }
(** Time constants in clock cycles; [infinity] disables a channel.
    [t2 <= 2 * t1] must hold (physicality). *)

type gate_error = { p1 : float; p2 : float }
(** Optional depolarizing gate error: after each gate, every operand qubit
    independently suffers a uniform Pauli with probability [p1] (one-qubit
    gates) or [p2] (two-qubit gates and SWAPs). A simplification of the
    full two-qubit depolarizing channel, standard in ESP-style models. *)

val no_gate_error : gate_error
(** [{ p1 = 0.; p2 = 0. }] *)

val dephasing_dominant : t2:float -> model
(** [t1 = ∞]: the paper's "noise mainly caused by qubit dephasing". *)

val damping_dominant : t1:float -> model
(** [t2 = 2·t1] (dephasing limited by damping): "noise mainly caused by
    qubit damping". *)

val validate : model -> unit
(** Raises [Invalid_argument] on unphysical parameters. *)

val kraus_amplitude_damping : gamma:float -> Qc.Matrix.t * Qc.Matrix.t
(** The (K0, K1) pair of the amplitude-damping channel; shared with the
    exact density-matrix simulator ({!Density}). *)

val kraus_dephasing : p:float -> Qc.Matrix.t * Qc.Matrix.t

val damping_gamma : model -> dt:float -> float
(** [1 − exp(−dt/t1)] (0 when damping is disabled). *)

val dephasing_p : model -> dt:float -> float
(** [(1 − exp(−dt/tφ))/2] with [1/tφ = 1/t2 − 1/(2·t1)]. *)

val fidelity :
  ?trajectories:int ->
  ?seed:int ->
  ?gate_error:gate_error ->
  model ->
  maqam:Arch.Maqam.t ->
  original:Qc.Circuit.t ->
  Schedule.Routed.t ->
  float
(** Average over [trajectories] (default 20) of the overlap between the
    noisy routed execution of [|0…0⟩] and the ideal (noise-free) result,
    with layouts accounted for. Each trajectory runs the routed events in
    start order, interleaving decoherence per qubit according to the
    timeline, including trailing idle time up to the makespan; [Measure]
    events are skipped (fidelity is read pre-measurement). *)
