(* Pluggable routing objectives (PR 8 tentpole).

   The CODAR SWAP loop ranks candidate edges by an integer priority and
   issues the best one while it clears an issue threshold. Historically
   that priority was exactly [Hbasic] (the summed CF-pair distance gain)
   with [Hfine] float tie-breaks — the makespan objective. This module
   factors the *objective* out of the scoring engine: every objective is
   expressed against the same delta-maintained distance-gain core as

       score(u,v) = scale * Hbasic(u,v) + bonus(u,v),   0 <= bonus < scale

   so ordering is lexicographic — Hbasic first, the objective's bonus as
   the tie-break — and the bucket-queue/repair machinery from PR 6 is
   shared by every objective unchanged. An objective further chooses

   - [issue_min]: issue SWAPs only while Hbasic > issue_min (the makespan
     rule is issue_min = 0; a fidelity-aware objective can demand a larger
     gain per SWAP on devices where gate error dominates decoherence);
   - [use_fine]: whether ties surviving the bonus fall back to the
     historical [Hfine] float evaluation (bit-compatible with the seed
     router) or break on the smallest edge directly.

   A committed SWAP reprices only the candidates whose endpoints' pairs
   it moved, so a bonus may read only the pairs incident to the
   candidate's endpoints (their endpoints and distances) and fixed
   device data. The four built-ins satisfy this repair rule.

   The [ctx] record is the engine's read-only view handed to an
   objective: the device's flat distance table, the per-cycle pair
   incidence index, device calibration (when the duration profile has
   one) and the SWAP duration. It is built once per scorer, never per
   call. *)

type ctx = {
  n : int;  (** physical qubit count *)
  dist : int array;
      (** {!Arch.Coupling.distance_table}: [dist.(a * n + b)] is the
          distance from [a] to [b], -1 when unreachable *)
  incident : int -> int list;
      (** pair indices incident to a physical qubit, this cycle *)
  pair_fst : int -> int;  (** current physical endpoints of a pair index *)
  pair_snd : int -> int;
  calibration : Arch.Calibration.t option;
      (** [None] when the duration profile has no calibration data *)
  swap_cycles : int;  (** SWAP duration in cycles under the active profile *)
}

module type S = sig
  val name : string

  val scale : int
  (** Multiplier on the shared [Hbasic] term; must exceed [bonus_bound]. *)

  val bonus_bound : int
  (** Inclusive upper bound on {!bonus}; [0 <= bonus <= bonus_bound < scale]. *)

  val bonus : ctx -> u:int -> v:int -> int
  (** Objective tie-break for the candidate SWAP [(u,v)], evaluated at
      (re)scoring time against current pair positions. *)

  val issue_min : ctx -> int
  (** Issue SWAPs only while the best candidate's [Hbasic] exceeds this
      (evaluated once per router run; 0 is the classic CODAR rule). *)

  val use_fine : bool
  (** Break residual ties with the historical [Hfine] float evaluation
      (subject to the router's ablation flag) instead of the smallest
      edge. *)
end

type t = (module S)

(* ------------------------------------------------------------- makespan *)

module Makespan : S = struct
  let name = "makespan"
  let scale = 1
  let bonus_bound = 0
  let bonus _ ~u:_ ~v:_ = 0
  let issue_min _ = 0
  let use_fine = true
end

(* ---------------------------------------------------------------- slack *)

(* SlackQ-style (arXiv:2009.02346): among equally distance-reducing SWAPs,
   prefer those whose endpoints host no CF-pair qubit — their latency hides
   inside the idle window the duration locks already carve out, instead of
   delaying a pending two-qubit gate. One bonus point per idle endpoint. *)
module Slack : S = struct
  let name = "slack"
  let scale = 4
  let bonus_bound = 2

  let bonus ctx ~u ~v =
    (match ctx.incident u with [] -> 1 | _ :: _ -> 0)
    + (match ctx.incident v with [] -> 1 | _ :: _ -> 0)

  let issue_min _ = 0
  let use_fine = false
end

(* ---------------------------------------------------------------- depth *)

(* Depth-delta cost in the style of arXiv:2002.07289: among equal distance
   gains, prefer the SWAP that makes the most pending CF pairs adjacent —
   those gates issue on the very next visit, shortening the critical path
   rather than merely shrinking summed distance. Capped at [bonus_bound]
   to stay below [scale]. *)
module Depth : S = struct
  let name = "depth"
  let scale = 4
  let bonus_bound = 3

  let bonus ctx ~u ~v =
    let dist = ctx.dist and n = ctx.n in
    let made_adjacent = ref 0 in
    let side a b =
      (* pairs incident to [a]: endpoint [a] moves to [b] *)
      List.iter
        (fun k ->
          let pa = ctx.pair_fst k and pb = ctx.pair_snd k in
          let o = if pa = a then pb else pa in
          if o <> b && dist.((a * n) + o) > 1 && dist.((b * n) + o) = 1 then
            incr made_adjacent)
        (ctx.incident a)
    in
    side u v;
    side v u;
    min bonus_bound !made_adjacent

  let issue_min _ = 0
  let use_fine = false
end

(* ------------------------------------------------------------------- t2 *)

(* TRAM-style (arXiv:2511.16051) transverse-relaxation/fidelity awareness:
   on devices whose calibration says one SWAP's gate error outweighs the
   decoherence bought by finishing a few qubit-cycles sooner, demand a
   distance gain of at least 2 per SWAP (issue_min = 1) — the router leans
   on fewer, better SWAPs (plus the guaranteed-progress forced SWAP) and
   trades makespan for estimated success probability. With no calibration
   the weighting is uniform and the objective degrades to makespan
   exactly, [Hfine] tie-breaks included. *)
module T2 : S = struct
  let name = "t2"
  let scale = 1
  let bonus_bound = 0
  let bonus _ ~u:_ ~v:_ = 0

  let issue_min ctx =
    match ctx.calibration with
    | None -> 0
    | Some c ->
      let swap_log_err =
        -3. *. log (Arch.Calibration.two_qubit_fidelity c)
      in
      let t1 = Arch.Calibration.t1_cycles c in
      let t2 = Arch.Calibration.t2_cycles c in
      let inv_tphi = (1. /. t2) -. (1. /. (2. *. t1)) in
      let idle_rate = (1. /. t1) +. Float.max 0. inv_tphi in
      (* frugal iff one SWAP's log-fidelity cost exceeds ~20 qubit-cycles
         of decoherence over its own duration: superconducting (short T2)
         stays aggressive, ion-trap and neutral-atom turn frugal *)
      if swap_log_err > 20. *. float_of_int ctx.swap_cycles *. idle_rate
      then 1
      else 0

  let use_fine = true
end

(* ------------------------------------------------------------- registry *)

let makespan : t = (module Makespan)
let slack : t = (module Slack)
let depth : t = (module Depth)
let t2 : t = (module T2)
let all = [ makespan; slack; depth; t2 ]

let name (o : t) =
  let module O = (val o) in
  O.name

let of_name s =
  List.find_opt (fun o -> String.equal (name o) s) all

let names = List.map name all

let list_of_string s =
  let parts = String.split_on_char ',' s |> List.map String.trim in
  if parts = [] || List.exists (fun p -> p = "") parts then
    Error (Fmt.str "empty objective name in %S" s)
  else
    List.fold_left
      (fun acc p ->
        match (acc, of_name p) with
        | Error _, _ -> acc
        | Ok _, None ->
          Error
            (Fmt.str "unknown objective %S (expected one of %s)" p
               (String.concat ", " names))
        | Ok l, Some o -> Ok (l @ [ o ]))
      (Ok []) parts

let string_of_list os = String.concat "," (List.map name os)
