let schedule_tagged ~durations ~n_physical tagged =
  let avail = Array.make n_physical 0 in
  let makespan = ref 0 in
  let events =
    List.map
      (fun (g, inserted) ->
        let qs =
          match g with
          | Qc.Gate.Barrier [] -> List.init n_physical Fun.id
          | Qc.Gate.Barrier qs -> qs
          | Qc.Gate.One _ | Qc.Gate.Two _ | Qc.Gate.Measure _ ->
            Qc.Gate.qubits g
        in
        let start = List.fold_left (fun acc q -> max acc avail.(q)) 0 qs in
        let duration = Arch.Durations.of_gate durations g in
        List.iter (fun q -> avail.(q) <- start + duration) qs;
        if start + duration > !makespan then makespan := start + duration;
        { Routed.gate = g; start; duration; inserted })
      tagged
  in
  (events, !makespan)

let schedule ~durations ~n_physical gates =
  schedule_tagged ~durations ~n_physical (List.map (fun g -> (g, false)) gates)

let reschedule ~durations ~n_physical (r : Routed.t) =
  let tagged =
    List.map (fun e -> (e.Routed.gate, e.Routed.inserted)) r.Routed.events
  in
  let events, makespan = schedule_tagged ~durations ~n_physical tagged in
  { r with Routed.events; makespan }
