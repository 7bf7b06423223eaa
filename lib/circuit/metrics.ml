(* The DAG's critical path over last-on-qubit predecessors, in one pass:
   a qubit's ready time is the finish time of the last gate on it, so a
   gate starts at the latest ready time of its qubits (0 with none) —
   what [Dag.critical_path_length] takes over its pred lists. *)
let rec ready_max ready acc = function
  | [] -> acc
  | q :: rest -> ready_max ready (Int.max acc ready.(q)) rest

let rec set_ready ready f = function
  | [] -> ()
  | q :: rest ->
    ready.(q) <- f;
    set_ready ready f rest

let finish_time ready g w =
  match g with
  | Gate.One (_, q) | Gate.Measure (q, _) ->
    let f = Int.max 0 ready.(q) + w in
    ready.(q) <- f;
    f
  | Gate.Two (_, a, b) ->
    let f = Int.max 0 (Int.max ready.(a) ready.(b)) + w in
    ready.(a) <- f;
    ready.(b) <- f;
    f
  | Gate.Barrier qs ->
    let f = ready_max ready 0 qs + w in
    set_ready ready f qs;
    f

let weighted_depth ~weight c =
  let ready = Array.make (Circuit.n_qubits c) 0 in
  let rec go acc = function
    | [] -> acc
    | g :: rest -> go (Int.max acc (finish_time ready g (weight g))) rest
  in
  go 0 (Circuit.gates c)

let depth c = weighted_depth ~weight:(fun _ -> 1) c

let gate_count c = Circuit.length c

let two_qubit_count c = List.length (Circuit.two_qubit_gates c)

let swap_count c =
  List.length (List.filter Gate.is_swap (Circuit.gates c))

let count_by_name c =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun g ->
      let k = Gate.name g in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (Circuit.gates c);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
