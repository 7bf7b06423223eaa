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
  List.fold_left
    (fun n e -> if e.inserted && Qc.Gate.is_swap e.gate then n + 1 else n)
    0 t.events

let gate_count t = List.length t.events

let to_physical_circuit ~n_physical t =
  Qc.Circuit.make ~n_qubits:n_physical (List.map (fun e -> e.gate) t.events)

let events_by_start t =
  List.stable_sort (fun a b -> Int.compare a.start b.start) t.events

let pp_event ppf e =
  Fmt.pf ppf "[%4d,%4d) %a" e.start (finish e) Qc.Gate.pp e.gate

let pp ppf t =
  Fmt.pf ppf "@[<v>routed: %d events, %d swaps, makespan %d@,%a@]"
    (gate_count t) (swap_count t) t.makespan
    (Fmt.list ~sep:Fmt.cut pp_event)
    (events_by_start t)
