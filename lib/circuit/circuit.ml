type t = { n_qubits : int; gates : Gate.t list }

let check_qubit n g q =
  if q < 0 || q >= n then
    invalid_arg
      (Fmt.str "Circuit.make: %a references qubit %d outside [0,%d)" Gate.pp
         g q n)

let rec check_qubits n g = function
  | [] -> ()
  | q :: rest ->
    check_qubit n g q;
    check_qubits n g rest

(* Operands in order, as [Gate.qubits] lists them, without building the
   list. *)
let check_gate n g =
  match g with
  | Gate.One (_, q) | Gate.Measure (q, _) -> check_qubit n g q
  | Gate.Two (_, q1, q2) ->
    check_qubit n g q1;
    check_qubit n g q2;
    if q1 = q2 then
      invalid_arg
        (Fmt.str "Circuit.make: %a repeats operand %d" Gate.pp g q1)
  | Gate.Barrier qs -> check_qubits n g qs

let rec check_gates n = function
  | [] -> ()
  | g :: rest ->
    check_gate n g;
    check_gates n rest

let make ~n_qubits gates =
  if n_qubits < 0 then invalid_arg "Circuit.make: negative width";
  check_gates n_qubits gates;
  { n_qubits; gates }

let empty n_qubits = make ~n_qubits []
let n_qubits c = c.n_qubits
let gates c = c.gates
let gate_array c = Array.of_list c.gates
let length c = List.length c.gates

let append c g =
  check_gate c.n_qubits g;
  { c with gates = c.gates @ [ g ] }

let concat a b =
  if a.n_qubits <> b.n_qubits then
    invalid_arg "Circuit.concat: width mismatch";
  { a with gates = a.gates @ b.gates }

let filter_gates f c = { c with gates = List.filter f c.gates }

let reverse c = { c with gates = List.rev c.gates }

let inverse c =
  let rec invert acc = function
    | [] -> Some { c with gates = acc }
    | g :: rest -> (
      match Gate.inverse g with
      | None -> None
      | Some g' -> invert (g' :: acc) rest)
  in
  invert [] c.gates

let used_qubits c =
  List.sort_uniq Stdlib.compare (List.concat_map Gate.qubits c.gates)

let two_qubit_gates c = List.filter Gate.is_two_qubit c.gates

let equal a b =
  a.n_qubits = b.n_qubits && List.equal Gate.equal a.gates b.gates

let pp ppf c =
  Fmt.pf ppf "@[<v>circuit on %d qubits:@,%a@]" c.n_qubits
    (Fmt.list ~sep:Fmt.cut Gate.pp)
    c.gates
