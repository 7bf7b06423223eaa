type error =
  | Not_adjacent of Routed.event
  | Overlap of int * Routed.event * Routed.event
  | Bad_duration of Routed.event * int
  | Unmatched_logical_gate of Qc.Gate.t
  | Leftover_original_gates of int
  | Bad_final_layout

let pp_error ppf = function
  | Not_adjacent e ->
    Fmt.pf ppf "two-qubit event on uncoupled qubits: %a" Routed.pp_event e
  | Overlap (q, a, b) ->
    Fmt.pf ppf "qubit %d double-booked: %a vs %a" q Routed.pp_event a
      Routed.pp_event b
  | Bad_duration (e, expect) ->
    Fmt.pf ppf "event %a should last %d cycles" Routed.pp_event e expect
  | Unmatched_logical_gate g ->
    Fmt.pf ppf "replayed gate %a cannot be matched in the original" Qc.Gate.pp
      g
  | Leftover_original_gates n ->
    Fmt.pf ppf "%d original gates were never executed" n
  | Bad_final_layout -> Fmt.pf ppf "recorded final layout differs from replay"

let ( let* ) = Result.bind

(* The first [k] in [0, n) where [bad k], or [n]. *)
let rec first_bad n bad k = if k >= n || bad k then k else first_bad n bad (k + 1)

(* Every check reads the physical gate {!Timeline.gate} rebuilds from an
   event's kind and operands, never the stored gate's own qubits. *)
let check_hardware ~maqam (t : Timeline.t) =
  let coupling = Arch.Maqam.coupling maqam in
  let n_physical = Arch.Coupling.n_qubits coupling in
  let bad k =
    match Timeline.gate t k with
    | Qc.Gate.Two (_, q1, q2) -> not (Arch.Coupling.adjacent coupling q1 q2)
    | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> false
  in
  let k = first_bad t.length bad 0 in
  if k < t.length then Error (Not_adjacent (Timeline.event t k))
  else begin
    (* per-qubit interval disjointness: each qubit's events, latest
       issued first, stably sorted by start *)
    let per_qubit = Array.make n_physical [] in
    for k = 0 to t.length - 1 do
      if Timeline.duration t k > 0 then
        List.iter
          (fun q -> per_qubit.(q) <- k :: per_qubit.(q))
          (Qc.Gate.qubits (Timeline.gate t k))
    done;
    let start = Timeline.start t in
    let finish k = start k + Timeline.duration t k in
    let check_qubit q ks =
      let sorted = List.sort (fun a b -> Int.compare (start a) (start b)) ks in
      let rec walk = function
        | a :: (b :: _ as rest) ->
          if finish a > start b then
            Error (Overlap (q, Timeline.event t a, Timeline.event t b))
          else walk rest
        | [ _ ] | [] -> Ok ()
      in
      walk sorted
    in
    let rec walk_qubits q =
      if q >= n_physical then Ok ()
      else
        let* () = check_qubit q per_qubit.(q) in
        walk_qubits (q + 1)
    in
    walk_qubits 0
  end

let check_timing ~maqam (t : Timeline.t) =
  let expect k = Arch.Maqam.duration maqam t.gates.(k) in
  let k = first_bad t.length (fun k -> Timeline.duration t k <> expect k) 0 in
  if k < t.length then Error (Bad_duration (Timeline.event t k, expect k))
  else Ok ()

let replay_logical (t : Timeline.t) =
  let layout = ref t.initial in
  let out = ref [] in
  for k = 0 to t.length - 1 do
    match Timeline.gate t k with
    | Qc.Gate.Two (Qc.Gate.Swap, p1, p2) when Timeline.is_inserted t k ->
      layout := Arch.Layout.swap_physical !layout p1 p2
    | (Qc.Gate.One _ | Qc.Gate.Two _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _)
      as g ->
      let back p =
        match Arch.Layout.log_of_phys !layout p with
        | Some l -> l
        | None -> -1
      in
      out := Qc.Gate.remap back g :: !out
  done;
  if Arch.Layout.equal !layout t.final then Ok (List.rev !out)
  else Error Bad_final_layout

let check_equivalence ~original (t : Timeline.t) =
  let* replay = replay_logical t in
  let originals = Qc.Circuit.gate_array original in
  let n = Array.length originals in
  let used = Array.make n false in
  let commutes = Qc.Commute.memoised () in
  (* Greedy commutative matching: a replayed gate must equal some unused
     original gate that commutes with every unused gate preceding it.
     [lo] is the smallest possibly-unused index — every slot below it is
     used, so both the candidate search and the prefix walk start there.
     Routed gates replay almost in original order, so the typical match
     is at [lo] with an empty prefix: O(1) amortised, which keeps
     verification linear on the 100k-gate large-tier schedules (the
     from-zero scan was O(n^2) — minutes per circuit, dwarfing the
     route itself). *)
  let lo = ref 0 in
  let match_gate g =
    let rec search i =
      if i >= n then Error (Unmatched_logical_gate g)
      else if used.(i) then search (i + 1)
      else if Qc.Gate.equal originals.(i) g then begin
        let rec commutes_with_prefix j =
          if j >= i then true
          else if used.(j) then commutes_with_prefix (j + 1)
          else
            commutes originals.(j) g && commutes_with_prefix (j + 1)
        in
        if commutes_with_prefix !lo then begin
          used.(i) <- true;
          while !lo < n && used.(!lo) do
            incr lo
          done;
          Ok ()
        end
        else search (i + 1)
      end
      else search (i + 1)
    in
    search !lo
  in
  let* () =
    List.fold_left
      (fun acc g ->
        let* () = acc in
        match_gate g)
      (Ok ()) replay
  in
  let leftover = Array.fold_left (fun acc u -> if u then acc else acc + 1) 0 used in
  if leftover = 0 then Ok () else Error (Leftover_original_gates leftover)

let check ~maqam ~original t =
  let* () = check_hardware ~maqam t in
  let* () = check_timing ~maqam t in
  check_equivalence ~original t

let check_all ~maqam ~original r = check ~maqam ~original (Timeline.of_routed r)
