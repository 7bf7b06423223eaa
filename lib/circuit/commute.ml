(* The router's CF tracker asks "do these gates commute?" once per
   (predecessor, gate) slot pair — tens of thousands of times per route —
   so the structural rules, the Z-phase rule and the flat-table key are
   written allocation-free, with no closures, for the unitary One/Two gate
   shapes. Only Barrier/Measure operands go through qubit lists. *)

let rec any_shared qa qb =
  match qa with [] -> false | q :: rest -> List.mem q qb || any_shared rest qb

let disjoint a b =
  match (a, b) with
  | Gate.One (_, p), Gate.One (_, q) -> p <> q
  | Gate.One (_, p), Gate.Two (_, q1, q2)
  | Gate.Two (_, q1, q2), Gate.One (_, p) ->
    p <> q1 && p <> q2
  | Gate.Two (_, p1, p2), Gate.Two (_, q1, q2) ->
    p1 <> q1 && p1 <> q2 && p2 <> q1 && p2 <> q2
  | _ -> not (any_shared (Gate.qubits a) (Gate.qubits b))

(* Both gates act diagonally on [q] in the same (Z or X) basis. *)
let basis_match a b q =
  (Gate.diagonal_on a q && Gate.diagonal_on b q)
  || (Gate.x_like_on a q && Gate.x_like_on b q)

(* [q] is not shared with unitary [b], or both act on it in one basis. *)
let agrees a b q =
  match b with
  | Gate.One (_, p) -> q <> p || basis_match a b q
  | Gate.Two (_, p1, p2) -> (q <> p1 && q <> p2) || basis_match a b q
  | Gate.Barrier _ | Gate.Measure _ -> false

(* Sufficient structural rule: two gates sharing qubits commute if, on every
   shared qubit, both act diagonally in the same (Z or X) basis. Controlled
   gates decompose as sums of projectors on such a qubit, so the argument in
   DESIGN.md §5 applies. 1: commute, 0: do not, -1: undecided. *)
let rule a b =
  if not (Gate.is_unitary a && Gate.is_unitary b) then
    if disjoint a b then 1 else 0
  else if disjoint a b then 1
  else if Gate.equal a b then 1
  else
    let decided =
      match a with
      | Gate.One (_, p) -> agrees a b p
      | Gate.Two (_, p1, p2) -> agrees a b p1 && agrees a b p2
      | Gate.Barrier _ | Gate.Measure _ -> false
    in
    if decided then 1 else -1

let commutes_by_rule a b =
  match rule a b with 1 -> Some true | 0 -> Some false | _ -> None

(* [g] is X, Y or H on [q], or a CX with target [q]. *)
let flips_on g q =
  match g with
  | Gate.One ((X | Y | H), p) -> p = q
  | Gate.Two (CX, _, t) -> t = q
  | Gate.One _ | Gate.Two _ | Gate.Barrier _ | Gate.Measure _ -> false

(* A Z phase (rz θ or u1 θ) on a qubit that [b] flips: the commutator has
   an entry of modulus 2|sin(θ/2)| (√2|sin(θ/2)| against H), so past the
   1e-6 margin it is far beyond [Matrix.commute]'s 1e-9 tolerance and the
   pair does not commute. Angles within the margin of a multiple of 2π —
   and NaN, for which the test is false — go to the exact check. *)
let phase_flipped a b =
  match a with
  | Gate.One ((Rz t | U1 t), q) ->
    flips_on b q && Float.abs (Float.sin (t /. 2.)) > 1e-6
  | Gate.One _ | Gate.Two _ | Gate.Barrier _ | Gate.Measure _ -> false

(* Parameter-free gate pairs are fully determined by their kinds plus the
   qubit-identification pattern, so their verdicts live in a flat int table
   indexed by a packed key — no gate rebuilding, no structural hashing.
   Parametrised kinds (angles change the answer) go to the exact check. *)
let pf_code g =
  match g with
  | Gate.One ((I | X | Y | Z | H | S | Sdg | T | Tdg) as k, _) -> (
    match k with
    | I -> 0
    | X -> 1
    | Y -> 2
    | Z -> 3
    | H -> 4
    | S -> 5
    | Sdg -> 6
    | T -> 7
    | Tdg -> 8
    | _ -> assert false)
  | Gate.Two (CX, _, _) -> 9
  | Gate.Two (CZ, _, _) -> 10
  | Gate.Two (Swap, _, _) -> 11
  | _ -> -1

let n_pf = 12

(* kind_a * kind_b * (4 operand slots renamed to 0..3, 2 bits each). The
   one piece of process-wide state: fixed-size, and every write for a key
   stores the same verdict, so concurrent routes may race on it. *)
let pf_table = Array.make (n_pf * n_pf * 256) (-1)

(* First-occurrence renaming of the (at most 4) operands as straight-line
   int arithmetic. A One gate contributes its operand twice, which packs
   the same as the arity-aware encoding would. *)
let pf_key a b ka kb =
  let a1, a2 =
    match a with
    | Gate.One (_, p) -> (p, p)
    | Gate.Two (_, p1, p2) -> (p1, p2)
    | Gate.Barrier _ | Gate.Measure _ -> assert false
  in
  let b1, b2 =
    match b with
    | Gate.One (_, p) -> (p, p)
    | Gate.Two (_, p1, p2) -> (p1, p2)
    | Gate.Barrier _ | Gate.Measure _ -> assert false
  in
  let ra2 = if a2 = a1 then 0 else 1 in
  let fresh = ra2 + 1 in
  let rb1 = if b1 = a1 then 0 else if b1 = a2 then ra2 else fresh in
  let fresh = if rb1 = fresh then fresh + 1 else fresh in
  let rb2 =
    if b2 = a1 then 0
    else if b2 = a2 then ra2
    else if b2 = b1 then rb1
    else fresh
  in
  (((ka * n_pf) + kb) lsl 8) lor (ra2 lsl 4) lor (rb1 lsl 2) lor rb2

(* Rules, then the Z-phase rule, then the flat table, then [exact]. *)
let decide ~exact a b =
  match rule a b with
  | 1 -> true
  | 0 -> false
  | _ ->
    if phase_flipped a b || phase_flipped b a then false
    else
      let ka = pf_code a and kb = pf_code b in
      if ka >= 0 && kb >= 0 then begin
        let key = pf_key a b ka kb in
        let v = pf_table.(key) in
        if v >= 0 then v = 1
        else begin
          let r = Matrix.commute a b in
          pf_table.(key) <- (if r then 1 else 0);
          r
        end
      end
      else exact a b

let matrix_commute a b = Matrix.commute a b
let commutes a b = decide ~exact:matrix_commute a b

(* First-occurrence renaming, like a per-call table would do but over the
   at most 4 distinct qubits two unitary gates can touch (the only gates
   that reach the exact check). Qubit indices are non-negative, so -1 is
   a safe empty slot. *)
let canonical a b =
  let q0 = ref (-1) and q1 = ref (-1) and q2 = ref (-1) and q3 = ref (-1) in
  let next = ref 0 in
  let rename q =
    if q = !q0 then 0
    else if q = !q1 then 1
    else if q = !q2 then 2
    else if q = !q3 then 3
    else begin
      let i = !next in
      (match i with 0 -> q0 := q | 1 -> q1 := q | 2 -> q2 := q | _ -> q3 := q);
      incr next;
      i
    end
  in
  let a' = Gate.remap rename a in
  let b' = Gate.remap rename b in
  (a', b')

(* A route asks the same parametrised question (one rx angle against one
   cx shape) many times: memoise the exact check under qubit-relabelling
   canonicalisation (commutation is invariant under it), for the caller's
   lifetime only. *)
let memoised () =
  let memo = Hashtbl.create 64 in
  let exact a b =
    let key = canonical a b in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r = Matrix.commute a b in
      Hashtbl.replace memo key r;
      r
  in
  fun a b -> decide ~exact a b
