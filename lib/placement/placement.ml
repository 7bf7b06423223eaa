type strategy =
  | Trivial
  | Random of int
  | Degree_weighted
  | Reverse_traversal of int

let all = [ Trivial; Random 7; Degree_weighted; Reverse_traversal 1 ]

let name = function
  | Trivial -> "trivial"
  | Random seed -> Fmt.str "random-%d" seed
  | Degree_weighted -> "degree"
  | Reverse_traversal k -> Fmt.str "sabre-%d" k

let max_passes = 64

(* ASCII digits only: [int_of_string] alone would also read OCaml's
   spellings ("0x3", "0b11", "1_0", "+2"). *)
let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let of_name s =
  let s = String.lowercase_ascii s in
  let suffix prefix =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  match s with
  | "trivial" -> Some Trivial
  | "random" -> Some (Random 7)
  | "degree" -> Some Degree_weighted
  | "sabre" -> Some (Reverse_traversal 1)
  | _ -> (
    match (suffix "random-", suffix "sabre-") with
    | Some d, _ ->
      (* one leading '-', so that [name (Random (-5))] = "random--5" reads
         back *)
      let unsigned =
        if d.[0] = '-' then String.sub d 1 (String.length d - 1) else d
      in
      if digits unsigned then
        Option.map (fun n -> Random n) (int_of_string_opt d)
      else None
    | None, Some d when digits d -> (
      match int_of_string_opt d with
      | Some k when k >= 1 && k <= max_passes -> Some (Reverse_traversal k)
      | Some _ | None -> None)
    | None, (Some _ | None) -> None)

let interaction_counts circuit =
  let counts = Array.make (Qc.Circuit.n_qubits circuit) 0 in
  List.iter
    (fun g ->
      if Qc.Gate.is_two_qubit g then
        List.iter (fun q -> counts.(q) <- counts.(q) + 1) (Qc.Gate.qubits g))
    (Qc.Circuit.gates circuit);
  counts

(* Grow a BFS-contiguous region from the highest-degree physical qubit, then
   hand its slots out to logical qubits in decreasing interaction order —
   busy qubits land in the well-connected centre. *)
let degree_weighted ~maqam circuit =
  let coupling = Arch.Maqam.coupling maqam in
  let n_physical = Arch.Coupling.n_qubits coupling in
  let n_logical = Qc.Circuit.n_qubits circuit in
  let seed =
    let best = ref 0 in
    for q = 1 to n_physical - 1 do
      if Arch.Coupling.degree coupling q > Arch.Coupling.degree coupling !best
      then best := q
    done;
    !best
  in
  let region = Queue.create () in
  let visited = Array.make n_physical false in
  let order = ref [] in
  Queue.add seed region;
  visited.(seed) <- true;
  while not (Queue.is_empty region) do
    let p = Queue.pop region in
    order := p :: !order;
    (* visit denser neighbours first so the region stays compact *)
    let neighbours =
      List.sort
        (fun a b ->
          compare (Arch.Coupling.degree coupling b) (Arch.Coupling.degree coupling a))
        (Arch.Coupling.neighbors coupling p)
    in
    List.iter
      (fun p' ->
        if not visited.(p') then begin
          visited.(p') <- true;
          Queue.add p' region
        end)
      neighbours
  done;
  let physical_order = List.rev !order in
  let logical_order =
    let counts = interaction_counts circuit in
    List.sort
      (fun a b -> compare counts.(b) counts.(a))
      (List.init n_logical Fun.id)
  in
  let l2p = Array.make n_logical (-1) in
  List.iteri
    (fun i lg ->
      match List.nth_opt physical_order i with
      | Some p -> l2p.(lg) <- p
      | None -> invalid_arg "Placement: device region too small")
    logical_order;
  Arch.Layout.of_array ~n_physical l2p

let compute strategy ~maqam circuit =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  if n_logical > n_physical then
    invalid_arg "Placement.compute: circuit wider than device";
  match strategy with
  | Trivial -> Arch.Layout.identity ~n_logical ~n_physical
  | Random seed ->
    Arch.Layout.random (Random.State.make [| seed |]) ~n_logical ~n_physical
  | Degree_weighted -> degree_weighted ~maqam circuit
  | Reverse_traversal iterations ->
    Sabre.Initial_mapping.reverse_traversal ~iterations ~maqam circuit
