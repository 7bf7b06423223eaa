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
let pattern a1 a2 b1 b2 =
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
  (ra2 lsl 4) lor (rb1 lsl 2) lor rb2

let pf_key_of a1 a2 b1 b2 ka kb =
  (((ka * n_pf) + kb) lsl 8) lor pattern a1 a2 b1 b2

let pf_key a b ka kb =
  match (a, b) with
  | Gate.One (_, a1), Gate.One (_, b1) -> pf_key_of a1 a1 b1 b1 ka kb
  | Gate.One (_, a1), Gate.Two (_, b1, b2) -> pf_key_of a1 a1 b1 b2 ka kb
  | Gate.Two (_, a1, a2), Gate.One (_, b1) -> pf_key_of a1 a2 b1 b1 ka kb
  | Gate.Two (_, a1, a2), Gate.Two (_, b1, b2) -> pf_key_of a1 a2 b1 b2 ka kb
  | _ -> assert false

(* The table verdict for a parameter-free pair, computed once per key. *)
let pf_verdict a b key =
  let v = pf_table.(key) in
  if v >= 0 then v = 1
  else begin
    let r = Matrix.commute a b in
    pf_table.(key) <- (if r then 1 else 0);
    r
  end

(* Rules, then the Z-phase rule, then the flat table, then [exact]. *)
let decide ~exact a b =
  match rule a b with
  | 1 -> true
  | 0 -> false
  | _ ->
    if phase_flipped a b || phase_flipped b a then false
    else
      let ka = pf_code a and kb = pf_code b in
      if ka >= 0 && kb >= 0 then pf_verdict a b (pf_key a b ka kb)
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

(* [decide] over gate indices. Everything [rule] and [phase_flipped] read
   off a gate is precomputed once per gate array, so a question costs a
   few int loads and compares: the operands (a one-qubit gate lists its
   operand twice, as [pf_key] packs it), a kind code that stands in for
   the constructor when testing equality, per-operand Z/X-basis bits
   ([Gate.diagonal_on]/[Gate.x_like_on] evaluated on that operand), the
   Z-phase flag with its 1e-6 margin already tested, the flipped qubit
   and the parameter-free code. The steps and their order are [decide]'s
   own. The exact check's memo is keyed by ints: each unitary gate's
   kind and parameters are interned to a class id, and a pair's key is
   its two classes plus [pattern] — the qubit identification that
   [canonical] renames — so it groups exactly the pairs [memoised]'s
   canonical key groups, and every verdict equals [memoised ()]'s. *)
module Memo = Hashtbl.Make (Int)

module Compiled = struct
  type t = {
    gates : Gate.t array;
    kind : int array;  (* constructor code; -1 for Barrier and Measure *)
    q0 : int array;
    q1 : int array;  (* = q0 for one-qubit gates *)
    bits : int array;
        (* bit 0/1: diagonal/x-like on q0, bit 2/3: on q1, bit 4: Z phase *)
    flip : int array;  (* the qubit X, Y, H or a cx target flips, or -1 *)
    pf : int array;  (* pf_code *)
    cls : int array;  (* class of the kind and parameters, or -1 *)
    classes : (Gate.t, int) Hashtbl.t;  (* shape with qubits zeroed -> id *)
    memo : bool Memo.t;  (* exact verdicts by (class, class, pattern) *)
  }

  let kind_code g =
    match g with
    | Gate.One (k, _) -> (
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
      | Rx _ -> 9
      | Ry _ -> 10
      | Rz _ -> 11
      | U1 _ -> 12
      | U2 _ -> 13
      | U3 _ -> 14)
    | Gate.Two (k, _, _) -> (
      match k with CX -> 15 | CZ -> 16 | Swap -> 17 | XX _ -> 18 | Rzz _ -> 19)
    | Gate.Barrier _ | Gate.Measure _ -> -1

  let basis_bits g q =
    (if Gate.diagonal_on g q then 1 else 0)
    lor if Gate.x_like_on g q then 2 else 0

  let make gates =
    let n = Array.length gates in
    let kind = Array.make n (-1) and q0 = Array.make n (-1)
    and q1 = Array.make n (-1) and bits = Array.make n 0
    and flip = Array.make n (-1) and pf = Array.make n (-1) in
    Array.iteri
      (fun i g ->
        kind.(i) <- kind_code g;
        pf.(i) <- pf_code g;
        let a, b =
          match g with
          | Gate.One (_, p) -> (p, p)
          | Gate.Two (_, p1, p2) -> (p1, p2)
          | Gate.Barrier _ | Gate.Measure _ -> (-1, -1)
        in
        q0.(i) <- a;
        q1.(i) <- b;
        if a >= 0 then begin
          let zphase =
            match g with
            | Gate.One ((Rz t | U1 t), _) ->
              Float.abs (Float.sin (t /. 2.)) > 1e-6
            | Gate.One _ | Gate.Two _ | Gate.Barrier _ | Gate.Measure _ ->
              false
          in
          bits.(i) <-
            basis_bits g a
            lor (basis_bits g b lsl 2)
            lor if zphase then 16 else 0;
          flip.(i) <-
            (match g with
            | Gate.One ((X | Y | H), p) -> p
            | Gate.Two (CX, _, t) -> t
            | Gate.One _ | Gate.Two _ | Gate.Barrier _ | Gate.Measure _ -> -1)
        end)
      gates;
    {
      gates;
      kind;
      q0;
      q1;
      bits;
      flip;
      pf;
      cls = Array.make n (-1);
      classes = Hashtbl.create 16;
      memo = Memo.create 16;
    }

  (* Interned on first use: most gates never reach the exact check. *)
  let class_of c i =
    let k = c.cls.(i) in
    if k >= 0 then k
    else begin
      let shape = Gate.remap (fun _ -> 0) c.gates.(i) in
      let k =
        match Hashtbl.find_opt c.classes shape with
        | Some k -> k
        | None ->
          let k = Hashtbl.length c.classes in
          Hashtbl.replace c.classes shape k;
          k
      in
      c.cls.(i) <- k;
      k
    end

  let exact c i j pat =
    (* class ids are below the gate count *)
    let n = Array.length c.gates in
    let key = (((class_of c i * n) + class_of c j) lsl 8) lor pat in
    match Memo.find_opt c.memo key with
    | Some r -> r
    | None ->
      let r = Matrix.commute c.gates.(i) c.gates.(j) in
      Memo.replace c.memo key r;
      r

  (* [agrees a b q] for [q] an operand of [a] whose basis bits are [ab]. *)
  let agrees ab q bb b0 b1 =
    if q = b0 then ab land bb land 3 <> 0
    else if q = b1 then ab land (bb lsr 2) land 3 <> 0
    else true

  let commutes c i j =
    let ka = c.kind.(i) and kb = c.kind.(j) in
    if ka < 0 || kb < 0 then disjoint c.gates.(i) c.gates.(j)
    else begin
      let a0 = c.q0.(i) and a1 = c.q1.(i) and b0 = c.q0.(j)
      and b1 = c.q1.(j) in
      if a0 <> b0 && a0 <> b1 && a1 <> b0 && a1 <> b1 then true
      else if
        ka = kb && a0 = b0 && a1 = b1 && Gate.equal c.gates.(i) c.gates.(j)
      then true
      else begin
        let ab = c.bits.(i) and bb = c.bits.(j) in
        if agrees ab a0 bb b0 b1 && agrees (ab lsr 2) a1 bb b0 b1 then true
        else if
          (ab land 16 <> 0 && c.flip.(j) = a0)
          || (bb land 16 <> 0 && c.flip.(i) = b0)
        then false
        else
          let pa = c.pf.(i) and pb = c.pf.(j) in
          if pa >= 0 && pb >= 0 then
            pf_verdict c.gates.(i) c.gates.(j) (pf_key_of a0 a1 b0 b1 pa pb)
          else exact c i j (pattern a0 a1 b0 b1)
      end
    end
end
