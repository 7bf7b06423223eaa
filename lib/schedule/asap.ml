let timeline ~durations ~n_physical ~initial ~final ~n_logical tagged =
  let n = List.length tagged in
  let gates = Array.make n Timeline.inserted_swap in
  let data = Bytes.create (Timeline.bytes_per_event * n) in
  let avail = Array.make n_physical 0 in
  let makespan = ref 0 in
  List.iteri
    (fun k (g, inserted) ->
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
      Timeline.set_physical gates data k ~inserted g ~start ~duration)
    tagged;
  {
    Timeline.length = n;
    gates;
    data;
    initial;
    final;
    makespan = !makespan;
    n_logical;
  }
