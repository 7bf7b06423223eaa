type t = { n : int; mutable rho : Qc.Matrix.t }

let init n =
  if n < 0 || n > 7 then invalid_arg "Density.init: 0 <= n <= 7";
  let size = 1 lsl n in
  let rho = Qc.Matrix.make size in
  rho.(0).(0) <- Complex.one;
  { n; rho }

let of_statevector sv =
  let n = Statevector.n_qubits sv in
  if n > 7 then invalid_arg "Density.of_statevector: too wide";
  let size = 1 lsl n in
  let rho = Qc.Matrix.make size in
  for i = 0 to size - 1 do
    for j = 0 to size - 1 do
      rho.(i).(j) <-
        Complex.mul (Statevector.amplitude sv i)
          (Complex.conj (Statevector.amplitude sv j))
    done
  done;
  { n; rho }

let trace d =
  let acc = ref Complex.zero in
  for i = 0 to (1 lsl d.n) - 1 do
    acc := Complex.add !acc d.rho.(i).(i)
  done;
  !acc

let conjugate d u =
  d.rho <- Qc.Matrix.mul u (Qc.Matrix.mul d.rho (Qc.Matrix.dagger u))

let apply_gate d (g : Qc.Gate.t) =
  match g with
  | Qc.Gate.One _ | Qc.Gate.Two _ ->
    conjugate d (Qc.Matrix.of_gate g ~positions:(fun q -> q) ~n:d.n)
  | Qc.Gate.Barrier _ -> ()
  | Qc.Gate.Measure _ -> invalid_arg "Density.apply_gate: Measure"

let apply_channel1 d kraus q =
  let size = 1 lsl d.n in
  let acc = Qc.Matrix.make size in
  let sum = ref acc in
  List.iter
    (fun k ->
      let kk = Qc.Matrix.embed k ~positions:[ q ] ~n:d.n in
      let term = Qc.Matrix.mul kk (Qc.Matrix.mul d.rho (Qc.Matrix.dagger kk)) in
      sum := Qc.Matrix.add !sum term)
    kraus;
  d.rho <- !sum

let decohere model d ~qubit ~dt =
  if dt > 0. then begin
    if model.Noise.t1 < infinity then begin
      let k0, k1 =
        Noise.kraus_amplitude_damping ~gamma:(Noise.damping_gamma model ~dt)
      in
      apply_channel1 d [ k0; k1 ] qubit
    end;
    let p = Noise.dephasing_p model ~dt in
    if p > 0. then begin
      let k0, k1 = Noise.kraus_dephasing ~p in
      apply_channel1 d [ k0; k1 ] qubit
    end
  end

(* ρ ↦ (1−p)ρ + (p/3)(XρX + YρY + ZρZ) *)
let depolarize d ~qubit ~p =
  if p > 0. then begin
    let scale s m = Qc.Matrix.scale { Complex.re = s; im = 0. } m in
    let pauli k =
      Qc.Matrix.embed (Qc.Matrix.of_one_qubit k) ~positions:[ qubit ] ~n:d.n
    in
    let term k =
      let u = pauli k in
      Qc.Matrix.mul u (Qc.Matrix.mul d.rho (Qc.Matrix.dagger u))
    in
    d.rho <-
      List.fold_left Qc.Matrix.add
        (scale (1. -. p) d.rho)
        [ scale (p /. 3.) (term Qc.Gate.X);
          scale (p /. 3.) (term Qc.Gate.Y);
          scale (p /. 3.) (term Qc.Gate.Z) ]
  end

(* Exact counterpart of a [Noise.fidelity] trajectory: same event walk, full
   channels instead of sampled branches. *)
let evolve ?(gate_error = Noise.no_gate_error) model ~n_physical ~input
    (r : Schedule.Routed.t) =
  Noise.validate model;
  let d = { input with rho = Array.map Array.copy input.rho } in
  let last = Array.make n_physical 0 in
  List.iter
    (fun e ->
      let qs = Qc.Gate.qubits e.Schedule.Routed.gate in
      List.iter
        (fun q ->
          decohere model d ~qubit:q
            ~dt:(float_of_int (e.Schedule.Routed.start - last.(q))))
        qs;
      (match e.Schedule.Routed.gate with
      | Qc.Gate.Measure _ | Qc.Gate.Barrier _ -> ()
      | Qc.Gate.One _ | Qc.Gate.Two _ -> apply_gate d e.Schedule.Routed.gate);
      let p =
        match e.Schedule.Routed.gate with
        | Qc.Gate.One _ -> gate_error.Noise.p1
        | Qc.Gate.Two (Qc.Gate.Swap, _, _) ->
          1. -. ((1. -. gate_error.Noise.p2) ** 3.)
        | Qc.Gate.Two _ -> gate_error.Noise.p2
        | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> 0.
      in
      List.iter
        (fun q ->
          depolarize d ~qubit:q ~p;
          decohere model d ~qubit:q
            ~dt:(float_of_int e.Schedule.Routed.duration);
          last.(q) <- Schedule.Routed.finish e)
        qs)
    (Schedule.Routed.events_by_start r);
  for q = 0 to n_physical - 1 do
    decohere model d ~qubit:q ~dt:(float_of_int (r.makespan - last.(q)))
  done;
  d

let fidelity_to_pure d psi =
  if Statevector.n_qubits psi <> d.n then
    invalid_arg "Density.fidelity_to_pure: width mismatch";
  let size = 1 lsl d.n in
  (* ⟨ψ|ρ|ψ⟩ = Σ_ij ψ*_i ρ_ij ψ_j *)
  let acc = ref Complex.zero in
  for i = 0 to size - 1 do
    for j = 0 to size - 1 do
      acc :=
        Complex.add !acc
          (Complex.mul
             (Complex.conj (Statevector.amplitude psi i))
             (Complex.mul d.rho.(i).(j) (Statevector.amplitude psi j)))
    done
  done;
  !acc.Complex.re

let fidelity ?(gate_error = Noise.no_gate_error) model ~maqam ~original
    (r : Schedule.Routed.t) =
  Noise.validate model;
  let n_physical = Arch.Maqam.n_qubits maqam in
  let ideal_logical = Statevector.run original in
  let ideal_physical =
    Statevector.embed ideal_logical ~n_physical
      ~place:(Arch.Layout.phys_of_log r.final)
  in
  let input =
    of_statevector
      (Statevector.embed
         (Statevector.init (Qc.Circuit.n_qubits original))
         ~n_physical
         ~place:(Arch.Layout.phys_of_log r.initial))
  in
  let final = evolve ~gate_error model ~n_physical ~input r in
  fidelity_to_pure final ideal_physical
