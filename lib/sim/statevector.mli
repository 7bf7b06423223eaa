(** Dense state-vector simulator.

    Qubit [q] is bit [q] of the basis index (little-endian), matching
    {!Qc.Matrix}. Practical up to ~16 qubits — enough for every device used
    in the fidelity experiment (the paper's OriginQ virtual machine plays
    the same role). Gates are applied in place via bit-sliced 2×2 / 4×4
    kernels; no full [2^n] matrix is ever built. *)

type t

val init : int -> t
(** [|0…0⟩] on [n] qubits. Raises [Invalid_argument] when [n > 24]. *)

val n_qubits : t -> int
val copy : t -> t

val amplitude : t -> int -> Complex.t

val norm : t -> float
val normalize : t -> unit

val fidelity : t -> t -> float
(** [|⟨a|b⟩|²]. *)

val apply : t -> Qc.Gate.t -> unit
(** Applies a unitary gate in place. [Barrier] is a no-op; [Measure] raises
    [Invalid_argument] (use {!measure_probability} instead). *)

val apply_circuit : t -> Qc.Circuit.t -> unit

val apply_matrix1 : t -> Qc.Matrix.t -> int -> unit
(** Apply an arbitrary 2×2 matrix (not necessarily unitary — used by the
    Monte-Carlo Kraus machinery) to one qubit. *)

val measure_probability : t -> int -> float
(** Probability of reading [1] on the qubit. *)

val run : Qc.Circuit.t -> t
(** [init] then [apply_circuit]. *)

val random_state : Random.State.t -> int -> t
(** Haar-ish random state (normalised complex Gaussian amplitudes). *)

val embed :
  t -> n_physical:int -> place:(int -> int) -> t
(** Lift a logical state onto a wider physical register: logical qubit [i]
    goes to physical qubit [place i] (injective); the remaining physical
    qubits are [|0⟩]. *)
