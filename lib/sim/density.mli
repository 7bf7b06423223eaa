(** Exact density-matrix simulation (≤ 7 qubits).

    The reference implementation for {!Noise}: where the trajectory sampler
    draws Kraus branches stochastically, this module applies the full
    channel [ρ ↦ Σ K ρ K†] exactly, so the trajectory average can be
    validated against it (see [test/test_sim.ml]). It also evolves routed
    schedules under the same decoherence model, giving noise-free-of-
    sampling fidelity numbers for small devices. *)

type t

val init : int -> t
(** [|0…0⟩⟨0…0|] on [n ≤ 7] qubits. *)

val of_statevector : Statevector.t -> t
(** The pure state's projector. Raises [Invalid_argument] above 7 qubits. *)

val trace : t -> Complex.t

val apply_gate : t -> Qc.Gate.t -> unit
(** [ρ ← U ρ U†]; [Barrier] is a no-op, [Measure] raises. *)

val apply_channel1 : t -> Qc.Matrix.t list -> int -> unit
(** Apply a single-qubit channel given by its Kraus operators (2×2). *)

val decohere : Noise.model -> t -> qubit:int -> dt:float -> unit
(** The exact counterpart of one decoherence step of a
    {!Noise.fidelity} trajectory. *)

val fidelity_to_pure : t -> Statevector.t -> float
(** [⟨ψ|ρ|ψ⟩]. *)

val fidelity :
  ?gate_error:Noise.gate_error ->
  Noise.model ->
  maqam:Arch.Maqam.t ->
  original:Qc.Circuit.t ->
  Schedule.Routed.t ->
  float
(** Exact counterpart of {!Noise.fidelity} (no trajectory averaging). *)
