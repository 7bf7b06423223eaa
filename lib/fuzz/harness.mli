(** The differential fuzzing harness.

    Drives {!Gen} cases through the {!Oracle} stack across a rotation of
    devices, shrinks every failure with {!Shrink} and optionally files
    the minimal counterexample in a {!Corpus} directory.

    Everything is a pure function of [config]: case [i] derives its RNG
    from {!Gen.case_seed}[ ~run_seed:config.seed ~index:i] and runs on
    device [i mod List.length config.devices], so a run is reproducible
    from [(seed, cases)] alone and {!summary_json} is byte-identical
    across repeated runs (it carries no wall-clock data). *)

type config = {
  cases : int;
  seed : int;
  max_qubits : int;  (** also capped by each device's width *)
  devices : (string * Arch.Coupling.t) list;
  durations : string;  (** a {!Corpus.durations_of_name} name *)
  sim_max_qubits : int;  (** device-width bound for the statevector oracle *)
  shrink_budget : int;  (** predicate evaluations per failing case *)
  corpus_dir : string option;  (** write shrunk counterexamples here *)
  faults : int option;
      (** when set, every case additionally exercises the crash-safe
          cache-persistence path under a per-case {!Faults} plan derived
          from this seed (disk-full and silent-corruption injections); a
          violated persistence invariant fails the case under the oracle
          name ["fault-persistence"] *)
  objectives : bool;
      (** when set, every case additionally routes under the [t2]
          objective via {!Oracle.check_objective} — verify + statevector
          equivalence must still hold. [t2] routes as makespan unless the
          profile makes its threshold 1 (ion, atom) *)
  min_gates : int option;
      (** floor on each sampled case's body-gate count (width is
          unchanged) — the large-scale-tier knob: pairing a 100–400-qubit
          device with e.g. [Some 10_000] drives its long distances
          through full-size circuits while staying reproducible from the
          same two integers *)
}

val default_devices : (string * Arch.Coupling.t) list
(** [q5], [grid-2x3] and [ring-8] — three topologies small enough that
    the statevector oracle runs on every measure-free case. *)

val default_config : config
(** 200 cases, seed 7, max 5 qubits, {!default_devices},
    superconducting durations, sim bound 10, shrink budget 300, no
    corpus directory, no fault injection, no objective rotation, no
    gate-count floor. *)

type case_failure = {
  index : int;
  case_seed : int;  (** replays via {!Gen.circuit} + {!Gen.sample_config} *)
  device : string;
  oracles : string list;  (** failing oracle names, deduplicated *)
  detail : string;  (** first failure, pretty-printed *)
  shrunk : Qc.Circuit.t;  (** minimal circuit still failing the oracle *)
  corpus_path : string option;
}

type result = {
  config : config;
  ran : int;
  failed : case_failure list;
  checks : int;  (** total oracle executions across all cases *)
  sim_checked : int;  (** cases where the statevector oracle ran *)
}

val run : ?progress:(int -> unit) -> config -> result
(** [progress] is called with each finished case index (for CLI
    spinners); it does not influence the outcome. Raises
    [Invalid_argument] on an unknown durations name or an empty device
    list. *)

val replay : sim_max_qubits:int -> Corpus.entry -> Oracle.report
(** Re-check one corpus entry on its recorded device and duration
    model. Raises [Invalid_argument] when the entry names an unknown
    device or duration model. *)

val summary_json : result -> Report.Json.t
(** Deterministic run summary (schema ["codar-fuzz-summary/1"]):
    configuration echo, pass/fail counts, and per-failure records with
    reproduction seeds and shrunk QASM. No timestamps. *)
