(** Pluggable routing objectives.

    A routing objective decides which candidate SWAP the CODAR loop
    prefers and when issuing a SWAP is worth it at all. Every objective
    rides on the shared delta-maintained distance-gain core ([Hbasic]):

    {v score(u,v) = scale * Hbasic(u,v) + bonus(u,v),  0 <= bonus < scale v}

    so scores order lexicographically — [Hbasic] first, the objective's
    integer bonus as tie-break — and the incremental bucket-queue
    machinery is reused unchanged by all of them. See
    [docs/ALGORITHM.md] ("Objectives") for cost definitions and the
    invariants each preserves. *)

type ctx = {
  n : int;  (** physical qubit count *)
  dist : int array;
      (** the device's flat distance table
          ({!Arch.Coupling.distance_table}): [dist.(a * n + b)] is the
          distance from [a] to [b], [-1] when unreachable *)
  incident : int -> int list;
      (** pair indices incident to a physical qubit, this cycle *)
  pair_fst : int -> int;  (** current physical endpoints of a pair index *)
  pair_snd : int -> int;
  calibration : Arch.Calibration.t option;
      (** [None] when the duration profile has no calibration data *)
  swap_cycles : int;  (** SWAP duration in cycles under the active profile *)
}
(** Read-only engine state handed to an objective. Built once per
    scorer; [incident]/[pair_fst]/[pair_snd] read the scorer's live
    per-cycle index, so bonuses always see current positions. *)

module type S = sig
  val name : string

  val scale : int
  (** Multiplier on the shared [Hbasic] term; must exceed [bonus_bound]. *)

  val bonus_bound : int
  (** Inclusive upper bound on {!bonus}; [0 <= bonus <= bonus_bound < scale]. *)

  val bonus : ctx -> u:int -> v:int -> int
  (** Objective tie-break for the candidate SWAP [(u,v)]; always called
      with [u < v], so asymmetric bonuses score each edge consistently.
      A committed SWAP reprices only the candidates whose endpoints'
      pairs it moved, so the bonus may read only the pairs incident to
      [u] and [v] (through [incident], [pair_fst], [pair_snd] and
      [dist]) and fixed device data. *)

  val issue_min : ctx -> int
  (** Issue SWAPs only while the best candidate's [Hbasic] exceeds this;
      evaluated once per router run (0 is the classic CODAR rule). *)

  val use_fine : bool
  (** Break residual ties with the historical [Hfine] float evaluation
      (subject to the router's ablation flag) instead of the smallest
      edge. *)
end

type t = (module S)

val makespan : t
(** Today's Hbasic/Hfine exactly: [scale = 1], no bonus, [issue_min = 0],
    Hfine tie-breaks. Byte-identical to the pre-subsystem router. *)

val slack : t
(** SlackQ-style: among equal distance gains, prefer SWAPs whose
    endpoints host no CF-pair qubit — their latency hides inside
    existing idle windows instead of delaying a pending gate. *)

val depth : t
(** Depth-delta style (arXiv:2002.07289): among equal distance gains,
    prefer the SWAP that makes the most pending CF pairs adjacent. *)

val t2 : t
(** Transverse-relaxation/fidelity-aware: on devices whose calibration
    says a SWAP's gate error outweighs the decoherence it saves, demand
    distance gain >= 2 per SWAP ([issue_min = 1]). Without calibration it
    degrades to {!makespan} exactly. *)

val all : t list
(** [[makespan; slack; depth; t2]] — rotation order for fuzz/bench. *)

val name : t -> string

val names : string list
(** Names of {!all}, in order. *)

val of_name : string -> t option

val list_of_string : string -> (t list, string) result
(** Parse a comma-separated objective list ("makespan,t2"); [Error]
    names the first unknown or empty element. *)

val string_of_list : t list -> string
