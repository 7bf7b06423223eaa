type event = { gate : Qc.Gate.t; start : int; duration : int; inserted : bool }

type t = {
  events : event list;
  initial : Arch.Layout.t;
  final : Arch.Layout.t;
  makespan : int;
  n_logical : int;
}

let finish e = e.start + e.duration

let swap_count t =
  List.length
    (List.filter (fun e -> e.inserted && Qc.Gate.is_swap e.gate) t.events)

let gate_count t = List.length t.events

let to_physical_circuit ~n_physical t =
  Qc.Circuit.make ~n_qubits:n_physical (List.map (fun e -> e.gate) t.events)

let raw_depth ~n_physical t =
  let ready = Array.make n_physical 0 in
  List.fold_left
    (fun acc e -> max acc (Qc.Metrics.finish_time ready e.gate 1))
    0 t.events

let events_by_start t =
  List.stable_sort (fun a b -> Stdlib.compare a.start b.start) t.events

let busy_intervals t ~n_physical =
  let per_qubit = Array.make n_physical [] in
  List.iter
    (fun e ->
      if e.duration > 0 then
        List.iter
          (fun q -> per_qubit.(q) <- (e.start, finish e) :: per_qubit.(q))
          (Qc.Gate.qubits e.gate))
    t.events;
  Array.map (List.sort Stdlib.compare) per_qubit

let pp_event ppf e =
  Fmt.pf ppf "[%4d,%4d) %a" e.start (finish e) Qc.Gate.pp e.gate

let pp ppf t =
  Fmt.pf ppf "@[<v>routed: %d events, %d swaps, makespan %d@,%a@]"
    (gate_count t) (swap_count t) t.makespan
    (Fmt.list ~sep:Fmt.cut pp_event)
    (events_by_start t)
