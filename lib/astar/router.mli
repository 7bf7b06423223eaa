(** Layer-by-layer A* mapper in the style of Zulehner, Paler & Wille
    (TCAD'19) — the third algorithm of the paper's comparison landscape
    (§II-A), next to CODAR and SABRE.

    For every layer of qubit-disjoint gates, an A* search over layouts finds
    a minimal SWAP sequence making {e all} the layer's two-qubit gates
    coupling-compliant at once (admissible heuristic: one SWAP can reduce
    the layer's total excess distance by at most 2). Search effort is capped
    by [max_expansions]; past the cap the router falls back to greedily
    applying the best distance-reducing SWAP, which keeps worst-case inputs
    (e.g. dense layers on Sycamore) tractable.

    Like SABRE, the emitted order is duration-unaware and is scored by ASAP
    replay under the machine's real durations. *)

type config = { max_expansions : int }

exception Stuck of string

val timeline :
  ?config:config ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Schedule.Timeline.t

val run :
  ?config:config ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Schedule.Routed.t
(** {!timeline} in list form ({!Schedule.Timeline.to_routed}). *)
