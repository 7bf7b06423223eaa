(** Gate-fidelity calibration data — the remaining columns of Table I.

    Real devices publish per-gate error rates; the paper's survey gives
    technology-level averages (e.g. superconducting 1q ≈ 99.6%, 2q ≈ 96.5%,
    readout ≈ 91–96%). This module carries those numbers so that an
    analytic success-probability estimate ({!Sim.Reliability} in the [sim]
    library) can extend the Fig. 9 fidelity comparison to circuits far too
    large to simulate. *)

type t

val make :
  name:string ->
  one_qubit_fidelity:float ->
  two_qubit_fidelity:float ->
  readout_fidelity:float ->
  t1_cycles:float ->
  t2_cycles:float ->
  t
(** All fidelities in (0, 1]; time constants in clock cycles of the matching
    {!Durations.t} profile ([infinity] allowed). Raises [Invalid_argument]
    on out-of-range values or [t2 > 2·t1]. *)

val name : t -> string
val one_qubit_fidelity : t -> float
val two_qubit_fidelity : t -> float
val t1_cycles : t -> float
val t2_cycles : t -> float

val gate_fidelity : t -> Qc.Gate.t -> float
(** Per-gate success probability. A SWAP counts as three two-qubit gates;
    [Barrier] is free; [Measure] uses the readout fidelity. *)

val superconducting : t
(** Table I, IBM columns: 1q 99.7%, 2q 96.5%, readout 93%,
    T1 ≈ 435 cycles / T2 ≈ 435 cycles (70 µs at ~160 ns per cycle). *)

val neutral_atom : t
(** Table I: excellent 1q (99.995%), poor 2q (82%), readout 98.6%. *)

val for_durations : Durations.t -> t option
(** The calibration preset matching a duration profile by name, if any
    ([None] for "uniform" — the profile has no published fidelity data). *)

val pp : Format.formatter -> t -> unit
