type t = {
  gates : Gate.t array;
  preds : int list array;
  succs : int list array;
}

let of_circuit c =
  let gates = Circuit.gate_array c in
  let n = Array.length gates in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let last_on_qubit = Array.make (Circuit.n_qubits c) (-1) in
  for i = 0 to n - 1 do
    let ps =
      List.filter_map
        (fun q ->
          let p = last_on_qubit.(q) in
          if p >= 0 then Some p else None)
        (Gate.qubits gates.(i))
      |> List.sort_uniq Stdlib.compare
    in
    preds.(i) <- ps;
    List.iter (fun p -> succs.(p) <- i :: succs.(p)) ps;
    List.iter (fun q -> last_on_qubit.(q) <- i) (Gate.qubits gates.(i))
  done;
  Array.iteri (fun i l -> succs.(i) <- List.sort_uniq Stdlib.compare l) succs;
  { gates; preds; succs }

let n_nodes d = Array.length d.gates
let gate d i = d.gates.(i)
let preds d i = d.preds.(i)
let succs d i = d.succs.(i)

let critical_path_length d ~weight =
  let n = n_nodes d in
  let finish = Array.make n 0 in
  let best = ref 0 in
  for i = 0 to n - 1 do
    let start =
      List.fold_left (fun acc p -> max acc finish.(p)) 0 d.preds.(i)
    in
    finish.(i) <- start + weight d.gates.(i);
    if finish.(i) > !best then best := finish.(i)
  done;
  !best
