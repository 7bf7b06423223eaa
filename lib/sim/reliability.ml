let t_phi ~t1 ~t2 =
  let inv = (1. /. t2) -. (1. /. (2. *. t1)) in
  if inv <= 0. then infinity else 1. /. inv

let decoherence_factor ~calibration ~active_cycles =
  let t1 = Arch.Calibration.t1_cycles calibration in
  let t2 = Arch.Calibration.t2_cycles calibration in
  let tphi = t_phi ~t1 ~t2 in
  let f tc = if tc = infinity then 1. else exp (-.active_cycles /. tc) in
  f t1 *. f tphi

(* A physical qubit decoheres from the moment it first hosts activity to the
   end of the schedule (before its first gate it sits in |0>, which neither
   damps nor dephases). *)
let estimated_success ~calibration ~n_physical (r : Schedule.Routed.t) =
  let first_touch = Array.make n_physical max_int in
  let gate_product = ref 1. in
  List.iter
    (fun e ->
      gate_product :=
        !gate_product *. Arch.Calibration.gate_fidelity calibration e.Schedule.Routed.gate;
      List.iter
        (fun q -> if e.Schedule.Routed.start < first_touch.(q) then
            first_touch.(q) <- e.Schedule.Routed.start)
        (Qc.Gate.qubits e.Schedule.Routed.gate))
    r.events;
  let decoherence = ref 1. in
  Array.iter
    (fun t0 ->
      if t0 < max_int then
        decoherence :=
          !decoherence
          *. decoherence_factor ~calibration
               ~active_cycles:(float_of_int (r.makespan - t0)))
    first_touch;
  !gate_product *. !decoherence
