(** Routing objectives of the CODAR router.

    Every objective ranks candidate SWAPs as the paper does (§IV-C): the
    largest [Hbasic] first, ties broken by [Hfine], then by the smallest
    edge. An objective fixes only when the best candidate is worth
    issuing: while its [Hbasic] exceeds {!issue_min}.

    Two objectives remain. [slack] and [depth] added a tie-break bonus to
    [Hbasic] and claimed a lower weighted depth; on the paper devices they
    did not lower it under any duration profile, so they were deleted
    (docs/ALGORITHM.md, [BENCH_PR28.json]). *)

type t

val makespan : t
(** The paper's rule: issue while [Hbasic > 0]. *)

val t2 : t
(** TRAM-style (arXiv:2511.16051): on a profile whose calibration says
    one SWAP's gate error outweighs the decoherence it saves, issue only
    while [Hbasic > 1] — fewer SWAPs, traded for estimated success
    probability. Elsewhere, and without calibration, it routes as
    {!makespan}. *)

val all : t list
(** [[makespan; t2]]. *)

val name : t -> string

val names : string list
(** Names of {!all}, in order. *)

val of_name : string -> t option

val list_of_string : string -> (t list, string) result
(** Parse a comma-separated objective list ("makespan,t2"); [Error]
    names the first unknown or empty element. *)

val string_of_list : t list -> string

val issue_min : t -> Arch.Durations.t -> int
(** The issue threshold under a duration profile: the router issues a
    SWAP only while the best candidate's [Hbasic] exceeds it. 0 for
    {!makespan}; for {!t2}, 1 when the profile's calibration
    ({!Arch.Calibration.for_durations}) puts one SWAP's log-fidelity cost
    above about 20 qubit-cycles of decoherence over its duration (ion
    trap, neutral atom), else 0 (superconducting, uniform). *)
