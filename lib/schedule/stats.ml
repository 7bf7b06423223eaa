type t = {
  makespan : int;
  busy_cycles : int;
  parallelism : float;
  swap_overhead : float;
  utilization : float array;
}

let of_timeline ~n_physical ~original (t : Timeline.t) =
  let per_qubit_busy = Array.make n_physical 0 in
  let busy_cycles = ref 0 in
  let busy q d =
    per_qubit_busy.(q) <- per_qubit_busy.(q) + d;
    busy_cycles := !busy_cycles + d
  in
  for k = 0 to t.length - 1 do
    let d = Timeline.duration t k in
    match t.gates.(k) with
    | Qc.Gate.Barrier qs -> List.iter (fun q -> busy q d) qs
    | Qc.Gate.One _ | Qc.Gate.Measure _ -> busy (Timeline.operand t k 0) d
    | Qc.Gate.Two _ ->
      busy (Timeline.operand t k 0) d;
      busy (Timeline.operand t k 1) d
  done;
  let makespan = max 1 t.makespan in
  {
    makespan = t.makespan;
    busy_cycles = !busy_cycles;
    parallelism = float_of_int !busy_cycles /. float_of_int makespan;
    swap_overhead =
      float_of_int (Timeline.swap_count t)
      /. float_of_int (max 1 (Qc.Circuit.length original));
    utilization =
      Array.map
        (fun b -> float_of_int b /. float_of_int makespan)
        per_qubit_busy;
  }

let pp ppf s =
  let used = Array.to_list s.utilization |> List.filter (fun u -> u > 0.) in
  let avg =
    match used with
    | [] -> 0.
    | _ -> List.fold_left ( +. ) 0. used /. float_of_int (List.length used)
  in
  Fmt.pf ppf
    "makespan %d, busy qubit-cycles %d, parallelism %.2f, swap overhead \
     %.1f%%, avg utilization (active qubits) %.1f%%"
    s.makespan s.busy_cycles s.parallelism
    (100. *. s.swap_overhead)
    (100. *. avg)

let to_csv (r : Routed.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "start,finish,gate,qubits\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Fmt.str "%d,%d,%s,%s\n" e.Routed.start (Routed.finish e)
           (Qc.Gate.name e.Routed.gate)
           (String.concat " "
              (List.map string_of_int (Qc.Gate.qubits e.Routed.gate)))))
    (Routed.events_by_start r);
  Buffer.contents buf

let pp_gantt ?(width = 72) ~n_physical ppf (r : Routed.t) =
  let makespan = max 1 r.makespan in
  let cols = min width makespan in
  let col_of t = min (cols - 1) (t * cols / makespan) in
  let rows = Array.make_matrix n_physical cols "\xc2\xb7" (* · *) in
  List.iter
    (fun e ->
      if e.Routed.duration > 0 then begin
        let glyph =
          if Qc.Gate.is_swap e.Routed.gate then "x"
          else if Qc.Gate.is_two_qubit e.Routed.gate then "\xe2\x96\xae" (* ▮ *)
          else "\xe2\x88\x8e" (* ∎ *)
        in
        let c0 = col_of e.Routed.start in
        let c1 = col_of (Routed.finish e - 1) in
        List.iter
          (fun q ->
            for c = c0 to c1 do
              rows.(q).(c) <- glyph
            done)
          (Qc.Gate.qubits e.Routed.gate)
      end)
    r.events;
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun q row ->
      Fmt.pf ppf "Q%-3d %s@," q (String.concat "" (Array.to_list row)))
    rows;
  Fmt.pf ppf "     0%*s@]" (cols - 1) (string_of_int r.makespan)
