type estimate = { esp : float; ln_esp : float }

let t_phi ~t1 ~t2 =
  let inv = (1. /. t2) -. (1. /. (2. *. t1)) in
  if inv <= 0. then infinity else 1. /. inv

(* exp(−t/T1) · exp(−t/Tφ) with 1/Tφ = 1/T2 − 1/(2T1), and its log *)
let decoherence_factor ~calibration ~active_cycles =
  let t1 = Arch.Calibration.t1_cycles calibration in
  let t2 = Arch.Calibration.t2_cycles calibration in
  let tphi = t_phi ~t1 ~t2 in
  let f tc = if tc = infinity then 1. else exp (-.active_cycles /. tc) in
  f t1 *. f tphi

let ln_decoherence_factor ~calibration ~active_cycles =
  let t1 = Arch.Calibration.t1_cycles calibration in
  let t2 = Arch.Calibration.t2_cycles calibration in
  let tphi = t_phi ~t1 ~t2 in
  let f tc = if tc = infinity then 0. else -.active_cycles /. tc in
  f t1 +. f tphi

(* A physical qubit decoheres from the moment it first hosts activity to
   the end of the schedule (before its first gate it sits in |0>, which
   neither damps nor dephases). *)
let at first (start : int) q = if start < first.(q) then first.(q) <- start

let rec at_all first start = function
  | [] -> ()
  | q :: rest ->
    at first start q;
    at_all first start rest

let touch first (t : Schedule.Timeline.t) k =
  let start = Schedule.Timeline.start t k in
  match t.gates.(k) with
  | Qc.Gate.Barrier qs -> at_all first start qs
  | Qc.Gate.One _ | Qc.Gate.Measure _ ->
    at first start (Schedule.Timeline.operand t k 0)
  | Qc.Gate.Two _ ->
    at first start (Schedule.Timeline.operand t k 0);
    at first start (Schedule.Timeline.operand t k 1)

let decoherence ~calibration ~makespan first =
  let d = ref 1. in
  Array.iter
    (fun t0 ->
      if t0 < max_int then
        d :=
          !d
          *. decoherence_factor ~calibration
               ~active_cycles:(float_of_int (makespan - t0)))
    first;
  !d

(* One walk over the events, allocating nothing per event; loops, not
   folds, so the product and the sum stay unboxed locals. *)
let estimate ~calibration ~n_physical (t : Schedule.Timeline.t) =
  let first = Array.make n_physical max_int in
  let product = ref 1. and ln_sum = ref 0. in
  for k = 0 to t.length - 1 do
    touch first t k;
    let f = Arch.Calibration.gate_fidelity calibration t.gates.(k) in
    product := !product *. f;
    ln_sum := !ln_sum +. log f
  done;
  let ln_decoherence = ref 0. in
  Array.iter
    (fun t0 ->
      if t0 < max_int then
        ln_decoherence :=
          !ln_decoherence
          +. ln_decoherence_factor ~calibration
               ~active_cycles:(float_of_int (t.makespan - t0)))
    first;
  {
    esp = !product *. decoherence ~calibration ~makespan:t.makespan first;
    ln_esp = !ln_sum +. !ln_decoherence;
  }
