let t_phi ~t1 ~t2 =
  let inv = (1. /. t2) -. (1. /. (2. *. t1)) in
  if inv <= 0. then infinity else 1. /. inv

(* exp(−t/T1) · exp(−t/Tφ) with 1/Tφ = 1/T2 − 1/(2T1) *)
let decoherence_factor ~calibration ~active_cycles =
  let t1 = Arch.Calibration.t1_cycles calibration in
  let t2 = Arch.Calibration.t2_cycles calibration in
  let tphi = t_phi ~t1 ~t2 in
  let f tc = if tc = infinity then 1. else exp (-.active_cycles /. tc) in
  f t1 *. f tphi

(* A physical qubit decoheres from the moment it first hosts activity to the
   end of the schedule (before its first gate it sits in |0>, which neither
   damps nor dephases). One walk over the events, allocating nothing per
   event: the gate product multiplies the same factors in the same order
   as a fold would. *)
let estimated_success ~calibration ~n_physical (r : Schedule.Routed.t) =
  let first_touch = Array.make n_physical max_int in
  let touch q t = if t < first_touch.(q) then first_touch.(q) <- t in
  let rec touch_all t = function
    | [] -> ()
    | q :: rest ->
      touch q t;
      touch_all t rest
  in
  (* a loop, not a fold: the product stays an unboxed local *)
  let gate_product = ref 1. in
  let events = ref r.events in
  while
    match !events with
    | [] -> false
    | (e : Schedule.Routed.event) :: rest ->
      events := rest;
      (match e.gate with
      | Qc.Gate.One (_, q) | Qc.Gate.Measure (q, _) -> touch q e.start
      | Qc.Gate.Two (_, a, b) ->
        touch a e.start;
        touch b e.start
      | Qc.Gate.Barrier qs -> touch_all e.start qs);
      gate_product :=
        !gate_product *. Arch.Calibration.gate_fidelity calibration e.gate;
      true
  do
    ()
  done;
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
