type priority = { basic : int; fine : float }

let compare_priority a b =
  match Stdlib.compare a.basic b.basic with
  | 0 -> Stdlib.compare a.fine b.fine
  | c -> c

let distance_sum ~maqam ~layout pairs =
  List.fold_left
    (fun acc (q1, q2) ->
      acc
      + Arch.Maqam.distance maqam
          (Arch.Layout.phys_of_log layout q1)
          (Arch.Layout.phys_of_log layout q2))
    0 pairs

(* Physical endpoint of [q] after hypothetically swapping p1 <-> p2. *)
let moved p1 p2 p = if p = p1 then p2 else if p = p2 then p1 else p

(* Hot path: one run per fine tie-break / forced-swap comparison, O(pairs)
   each, so distances are read raw (the [-1] unreachable sentinel is
   turned into a typed failure, never arithmetic) and the coordinate
   terms are computed without the Option boxing of the generic accessors.
   On the dense backend that means indexing the flat table directly; on
   the sparse one, [distance_raw] point queries (resident row or
   early-exit BFS — never a full-row materialisation). Either way the
   float operation sequence is exactly the historical one — [fine] must
   stay bitwise identical across code revisions (and across backends:
   point queries return the same integers the table would hold). *)
let evaluate_phys ~maqam ~phys_pairs ~swap:(p1, p2) =
  let coupling = Arch.Maqam.coupling maqam in
  let basic = ref 0 and fine = ref 0. in
  let step_basic =
    match Arch.Coupling.backend coupling with
    | Arch.Coupling.Dense ->
      let dist = Arch.Coupling.distance_table coupling in
      let n = Arch.Coupling.n_qubits coupling in
      fun a b a' b' ->
        let d = dist.((a * n) + b) and d' = dist.((a' * n) + b') in
        if d < 0 || d' < 0 then
          invalid_arg "Heuristic.evaluate_phys: disconnected qubit pair";
        basic := !basic + d - d'
    | Arch.Coupling.Sparse ->
      fun a b a' b' ->
        let d = Arch.Coupling.distance_raw coupling a b
        and d' = Arch.Coupling.distance_raw coupling a' b' in
        if d < 0 || d' < 0 then
          invalid_arg "Heuristic.evaluate_phys: disconnected qubit pair";
        basic := !basic + d - d'
  in
  (match Arch.Coupling.coords coupling with
  | None ->
    List.iter
      (fun (a, b) ->
        step_basic a b (moved p1 p2 a) (moved p1 p2 b))
      phys_pairs
  | Some cs ->
    List.iter
      (fun (a, b) ->
        let a' = moved p1 p2 a and b' = moved p1 p2 b in
        step_basic a b a' b';
        let xa, ya = cs.(a') and xb, yb = cs.(b') in
        let vd = Float.abs (ya -. yb) and hd = Float.abs (xa -. xb) in
        fine := !fine -. Float.abs (vd -. hd))
      phys_pairs);
  { basic = !basic; fine = !fine }

(* [evaluate_phys]'s fine fold alone, over pair arrays: the same float
   operations in the same pair order, so the bits are equal. *)
let fine_phys ~coords ~pa ~pb ~n_pairs ~u ~v =
  match coords with
  | None -> 0.
  | Some cs ->
    let fine = ref 0. in
    for k = 0 to n_pairs - 1 do
      let xa, ya = cs.(moved u v pa.(k)) and xb, yb = cs.(moved u v pb.(k)) in
      let vd = Float.abs (ya -. yb) and hd = Float.abs (xa -. xb) in
      fine := !fine -. Float.abs (vd -. hd)
    done;
    !fine

let evaluate ~maqam ~layout ~cf_pairs ~swap =
  let phys_pairs =
    List.map
      (fun (q1, q2) ->
        ( Arch.Layout.phys_of_log layout q1,
          Arch.Layout.phys_of_log layout q2 ))
      cf_pairs
  in
  evaluate_phys ~maqam ~phys_pairs ~swap
