type model = { t1 : float; t2 : float }

let dephasing_dominant ~t2 = { t1 = infinity; t2 }
let damping_dominant ~t1 = { t1; t2 = 2. *. t1 }

let validate m =
  if m.t1 <= 0. || m.t2 <= 0. then
    invalid_arg "Noise: time constants must be positive";
  if m.t2 > 2. *. m.t1 +. 1e-9 then
    invalid_arg "Noise: unphysical model (t2 > 2*t1)"

let t_phi m =
  (* 1/tφ = 1/t2 - 1/(2 t1) *)
  let inv = (1. /. m.t2) -. (1. /. (2. *. m.t1)) in
  if inv <= 0. then infinity else 1. /. inv

let c re : Complex.t = { re; im = 0. }

let kraus_amplitude_damping ~gamma : Qc.Matrix.t * Qc.Matrix.t =
  ( [| [| c 1.; c 0. |]; [| c 0.; c (sqrt (1. -. gamma)) |] |],
    [| [| c 0.; c (sqrt gamma) |]; [| c 0.; c 0. |] |] )

let kraus_dephasing ~p : Qc.Matrix.t * Qc.Matrix.t =
  ( [| [| c (sqrt (1. -. p)); c 0. |]; [| c 0.; c (sqrt (1. -. p)) |] |],
    [| [| c (sqrt p); c 0. |]; [| c 0.; c (-.sqrt p) |] |] )

let damping_gamma m ~dt = 1. -. exp (-.dt /. m.t1)

let dephasing_p m ~dt =
  let tphi = t_phi m in
  if tphi = infinity then 0. else (1. -. exp (-.dt /. tphi)) /. 2.

(* Sample one Kraus branch of a single-qubit channel {k0, k1} with Born
   probabilities, renormalising the survivor. *)
let apply_channel ~rng sv q (k0 : Qc.Matrix.t) (k1 : Qc.Matrix.t) =
  let trial = Statevector.copy sv in
  Statevector.apply_matrix1 trial k1 q;
  let p1 = Statevector.norm trial *. Statevector.norm trial in
  if Random.State.float rng 1. < p1 then begin
    Statevector.apply_matrix1 sv k1 q;
    Statevector.normalize sv
  end
  else begin
    Statevector.apply_matrix1 sv k0 q;
    Statevector.normalize sv
  end

(* One sampled trajectory step of the two channels on a qubit. *)
let decohere ~rng m sv ~qubit ~dt =
  if dt > 0. then begin
    if m.t1 < infinity then begin
      let k0, k1 = kraus_amplitude_damping ~gamma:(damping_gamma m ~dt) in
      apply_channel ~rng sv qubit k0 k1
    end;
    let p = dephasing_p m ~dt in
    if p > 0. then begin
      let k0, k1 = kraus_dephasing ~p in
      apply_channel ~rng sv qubit k0 k1
    end
  end

type gate_error = { p1 : float; p2 : float }

let no_gate_error = { p1 = 0.; p2 = 0. }

(* With probability [p], a uniformly random Pauli on the qubit. *)
let depolarize ~rng sv ~qubit ~p =
  if p > 0. && Random.State.float rng 1. < p then begin
    let pauli =
      match Random.State.int rng 3 with
      | 0 -> Qc.Gate.X
      | 1 -> Qc.Gate.Y
      | _ -> Qc.Gate.Z
    in
    Statevector.apply sv (Qc.Gate.One (pauli, qubit))
  end

let gate_error_p ge (g : Qc.Gate.t) =
  match g with
  | Qc.Gate.One _ -> ge.p1
  | Qc.Gate.Two (Qc.Gate.Swap, _, _) ->
    (* three back-to-back two-qubit interactions *)
    1. -. ((1. -. ge.p2) ** 3.)
  | Qc.Gate.Two ((Qc.Gate.CX | Qc.Gate.CZ | Qc.Gate.XX _ | Qc.Gate.Rzz _), _, _)
    ->
    ge.p2
  | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> 0.

(* One trajectory of the routed events on [input], a physical-space
   state. *)
let run_trajectory ~rng ?(gate_error = no_gate_error) m ~n_physical ~input
    (r : Schedule.Routed.t) =
  validate m;
  let sv = Statevector.copy input in
  let last = Array.make n_physical 0 in
  List.iter
    (fun e ->
      let qs = Qc.Gate.qubits e.Schedule.Routed.gate in
      (* decoherence while idle before the gate, then the gate itself, then
         decoherence during the gate window *)
      List.iter
        (fun q ->
          decohere ~rng m sv ~qubit:q
            ~dt:(float_of_int (e.Schedule.Routed.start - last.(q))))
        qs;
      (match e.Schedule.Routed.gate with
      | Qc.Gate.Measure _ | Qc.Gate.Barrier _ -> ()
      | Qc.Gate.One _ | Qc.Gate.Two _ -> Statevector.apply sv e.Schedule.Routed.gate);
      let p = gate_error_p gate_error e.Schedule.Routed.gate in
      List.iter
        (fun q ->
          depolarize ~rng sv ~qubit:q ~p;
          decohere ~rng m sv ~qubit:q
            ~dt:(float_of_int e.Schedule.Routed.duration);
          last.(q) <- Schedule.Routed.finish e)
        qs)
    (Schedule.Routed.events_by_start r);
  (* trailing idle time until the whole circuit finishes *)
  for q = 0 to n_physical - 1 do
    decohere ~rng m sv ~qubit:q ~dt:(float_of_int (r.makespan - last.(q)))
  done;
  sv

let fidelity ?(trajectories = 20) ?(seed = 0xC0DA)
    ?(gate_error = no_gate_error) m ~maqam ~original (r : Schedule.Routed.t) =
  validate m;
  let n_physical = Arch.Maqam.n_qubits maqam in
  let ideal_logical = Statevector.run original in
  let ideal_physical =
    Statevector.embed ideal_logical ~n_physical
      ~place:(Arch.Layout.phys_of_log r.final)
  in
  let input =
    Statevector.embed
      (Statevector.init (Qc.Circuit.n_qubits original))
      ~n_physical
      ~place:(Arch.Layout.phys_of_log r.initial)
  in
  let rng = Random.State.make [| seed |] in
  let acc = ref 0. in
  for _ = 1 to trajectories do
    let final = run_trajectory ~rng ~gate_error m ~n_physical ~input r in
    acc := !acc +. Statevector.fidelity ideal_physical final
  done;
  !acc /. float_of_int trajectories
