(* Tests for the [sim] library: state vectors, the noise model and the
   routed-equivalence checker. *)

let sc = Arch.Durations.superconducting

(* ------------------------------------------------------------ statevector *)

let complex_close a b = Complex.norm (Complex.sub a b) < 1e-9

let test_init () =
  let sv = Sim.Statevector.init 3 in
  Alcotest.(check bool) "amp |000> = 1" true
    (complex_close (Sim.Statevector.amplitude sv 0) Complex.one);
  Alcotest.(check (float 1e-9)) "norm" 1. (Sim.Statevector.norm sv);
  Alcotest.(check bool) "too wide rejected" true
    (try
       ignore (Sim.Statevector.init 25);
       false
     with Invalid_argument _ -> true)

let test_x_and_h () =
  let sv = Sim.Statevector.init 2 in
  Sim.Statevector.apply sv (Qc.Gate.x 0);
  Alcotest.(check bool) "X|00> = |01>" true
    (complex_close (Sim.Statevector.amplitude sv 1) Complex.one);
  Sim.Statevector.apply sv (Qc.Gate.x 0);
  Sim.Statevector.apply sv (Qc.Gate.h 0);
  let r = 1. /. sqrt 2. in
  Alcotest.(check bool) "H superposition" true
    (complex_close (Sim.Statevector.amplitude sv 0) { Complex.re = r; im = 0. }
    && complex_close (Sim.Statevector.amplitude sv 1) { Complex.re = r; im = 0. })

let test_bell () =
  let c = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ] in
  let sv = Sim.Statevector.run c in
  let r = 1. /. sqrt 2. in
  Alcotest.(check bool) "bell amplitudes" true
    (complex_close (Sim.Statevector.amplitude sv 0) { Complex.re = r; im = 0. }
    && complex_close (Sim.Statevector.amplitude sv 3) { Complex.re = r; im = 0. }
    && complex_close (Sim.Statevector.amplitude sv 1) Complex.zero
    && complex_close (Sim.Statevector.amplitude sv 2) Complex.zero);
  Alcotest.(check (float 1e-9)) "P(q1 = 1)" 0.5
    (Sim.Statevector.measure_probability sv 1)

let test_swap_moves_amplitude () =
  let sv = Sim.Statevector.init 2 in
  Sim.Statevector.apply sv (Qc.Gate.x 0);
  Sim.Statevector.apply sv (Qc.Gate.swap 0 1);
  Alcotest.(check bool) "|01> -> |10>" true
    (complex_close (Sim.Statevector.amplitude sv 2) Complex.one)

let test_fidelity_and_inner () =
  let a = Sim.Statevector.init 2 in
  let b = Sim.Statevector.init 2 in
  Alcotest.(check (float 1e-9)) "identical" 1. (Sim.Statevector.fidelity a b);
  Sim.Statevector.apply b (Qc.Gate.x 0);
  Alcotest.(check (float 1e-9)) "orthogonal" 0. (Sim.Statevector.fidelity a b);
  (* global phase doesn't change fidelity *)
  let c = Sim.Statevector.init 2 in
  Sim.Statevector.apply c (Qc.Gate.z 0);
  Alcotest.(check (float 1e-9)) "phase invariant" 1.
    (Sim.Statevector.fidelity a c)

let test_measure_rejected () =
  let sv = Sim.Statevector.init 1 in
  Alcotest.(check bool) "measure rejected" true
    (try
       Sim.Statevector.apply sv (Qc.Gate.measure 0 0);
       false
     with Invalid_argument _ -> true)

let test_random_state_normalised () =
  let rng = Random.State.make [| 7 |] in
  let sv = Sim.Statevector.random_state rng 4 in
  Alcotest.(check (float 1e-9)) "norm 1" 1. (Sim.Statevector.norm sv)

let test_embed () =
  let sv = Sim.Statevector.init 2 in
  Sim.Statevector.apply sv (Qc.Gate.x 0);
  Sim.Statevector.apply sv (Qc.Gate.x 1);
  (* logical |11> placed at physical qubits 1 and 3 of a 4-qubit register *)
  let wide =
    Sim.Statevector.embed sv ~n_physical:4 ~place:(fun l -> (2 * l) + 1)
  in
  Alcotest.(check bool) "|1010> set" true
    (complex_close (Sim.Statevector.amplitude wide 0b1010) Complex.one)

let prop_unitarity_preserves_norm =
  QCheck.Test.make ~count:100 ~name:"circuits preserve the norm"
    QCheck.(small_list (pair (int_bound 4) (int_bound 2)))
    (fun choices ->
      let sv = Sim.Statevector.init 3 in
      List.iter
        (fun (g, q) ->
          let q2 = (q + 1) mod 3 in
          let gate =
            match g with
            | 0 -> Qc.Gate.h q
            | 1 -> Qc.Gate.t q
            | 2 -> Qc.Gate.cx q q2
            | 3 -> Qc.Gate.swap q q2
            | _ -> Qc.Gate.rz 0.3 q
          in
          Sim.Statevector.apply sv gate)
        choices;
      Float.abs (Sim.Statevector.norm sv -. 1.) < 1e-9)

(* ------------------------------------------------------------------ noise *)

let routed_on_line circuit =
  let maqam = Arch.Maqam.make ~coupling:(Arch.Devices.linear 3) ~durations:sc in
  let initial =
    Arch.Layout.identity ~n_logical:(Qc.Circuit.n_qubits circuit) ~n_physical:3
  in
  (maqam, Codar.Remapper.run ~maqam ~initial circuit)

let test_noise_validation () =
  Alcotest.(check bool) "t2 > 2 t1 rejected" true
    (try
       Sim.Noise.validate { Sim.Noise.t1 = 1.; t2 = 3. };
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative rejected" true
    (try
       Sim.Noise.validate { Sim.Noise.t1 = -1.; t2 = 1. };
       false
     with Invalid_argument _ -> true);
  Sim.Noise.validate (Sim.Noise.dephasing_dominant ~t2:10.);
  Sim.Noise.validate (Sim.Noise.damping_dominant ~t1:10.)

let test_noiseless_limit () =
  (* with huge time constants the noisy run equals the ideal one *)
  let circuit = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ] in
  let maqam, r = routed_on_line circuit in
  let f =
    Sim.Noise.fidelity ~trajectories:5
      { Sim.Noise.t1 = 1e12; t2 = 1e12 }
      ~maqam ~original:circuit r
  in
  Alcotest.(check (float 1e-6)) "fidelity 1" 1. f

let test_dephasing_spares_basis_states () =
  (* a computational-basis circuit (X only) is immune to pure dephasing *)
  let circuit = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.x 0; Qc.Gate.x 1 ] in
  let maqam, r = routed_on_line circuit in
  let f =
    Sim.Noise.fidelity ~trajectories:10
      (Sim.Noise.dephasing_dominant ~t2:2.)
      ~maqam ~original:circuit r
  in
  Alcotest.(check (float 1e-6)) "basis states immune" 1. f

let test_dephasing_hurts_superpositions () =
  let circuit = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ] in
  let maqam, r = routed_on_line circuit in
  let f =
    Sim.Noise.fidelity ~trajectories:40
      (Sim.Noise.dephasing_dominant ~t2:3.)
      ~maqam ~original:circuit r
  in
  Alcotest.(check bool) "fidelity clearly below 1" true (f < 0.95)

let test_damping_hurts_excited_states () =
  let circuit = Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.x 0 ] in
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.linear 1) ~durations:sc
  in
  let initial = Arch.Layout.identity ~n_logical:1 ~n_physical:1 in
  let r = Codar.Remapper.run ~maqam ~initial circuit in
  let f =
    Sim.Noise.fidelity ~trajectories:60
      (Sim.Noise.damping_dominant ~t1:2.)
      ~maqam ~original:circuit r
  in
  Alcotest.(check bool) "|1> decays" true (f < 0.9)

let test_shorter_schedule_higher_fidelity () =
  (* the same physical gates, once packed and once artificially stretched:
     the longer schedule must lose more fidelity (Fig. 9's mechanism) *)
  let circuit =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.h 0; Qc.Gate.h 1; Qc.Gate.h 2; Qc.Gate.cx 0 1 ]
  in
  let maqam, r = routed_on_line circuit in
  let stretched =
    {
      r with
      Schedule.Routed.events =
        List.map
          (fun e -> { e with Schedule.Routed.start = e.Schedule.Routed.start * 20 })
          r.Schedule.Routed.events;
      makespan = r.Schedule.Routed.makespan * 20;
    }
  in
  let model = Sim.Noise.dephasing_dominant ~t2:100. in
  let f_packed =
    Sim.Noise.fidelity ~trajectories:40 model ~maqam ~original:circuit r
  in
  let f_stretched =
    Sim.Noise.fidelity ~trajectories:40 model ~maqam ~original:circuit
      stretched
  in
  Alcotest.(check bool)
    (Fmt.str "packed %.3f > stretched %.3f" f_packed f_stretched)
    true (f_packed > f_stretched)

(* ---------------------------------------------------------------- density *)

let test_density_pure_state () =
  let d = Sim.Density.init 2 in
  Alcotest.(check (float 1e-12)) "trace 1" 1. (Sim.Density.trace d).Complex.re;
  Sim.Density.apply_gate d (Qc.Gate.h 0);
  Sim.Density.apply_gate d (Qc.Gate.cx 0 1);
  let bell =
    Sim.Statevector.run
      (Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ])
  in
  Alcotest.(check (float 1e-9)) "pure evolution matches statevector" 1.
    (Sim.Density.fidelity_to_pure d bell);
  Alcotest.(check (float 1e-12)) "trace preserved" 1.
    (Sim.Density.trace d).Complex.re

let test_density_channel_trace () =
  let d = Sim.Density.of_statevector (Sim.Statevector.run
    (Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.h 0 ])) in
  let k0, k1 = Sim.Noise.kraus_dephasing ~p:0.3 in
  Sim.Density.apply_channel1 d [ k0; k1 ] 0;
  Alcotest.(check (float 1e-12)) "channel preserves trace" 1.
    (Sim.Density.trace d).Complex.re;
  (* full dephasing kills off-diagonal coherence: fidelity to |+> drops to
     1/2 as p -> 1/2 *)
  let d2 = Sim.Density.of_statevector (Sim.Statevector.run
    (Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.h 0 ])) in
  let k0, k1 = Sim.Noise.kraus_dephasing ~p:0.5 in
  Sim.Density.apply_channel1 d2 [ k0; k1 ] 0;
  let plus = Sim.Statevector.run (Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.h 0 ]) in
  Alcotest.(check (float 1e-9)) "fully dephased |+> has fidelity 1/2" 0.5
    (Sim.Density.fidelity_to_pure d2 plus)

let test_density_damping_analytic () =
  (* |1> under amplitude damping: survival probability exp(-dt/t1) *)
  let d = Sim.Density.of_statevector (Sim.Statevector.run
    (Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.x 0 ])) in
  let model = Sim.Noise.damping_dominant ~t1:10. in
  Sim.Density.decohere model d ~qubit:0 ~dt:5.;
  let one = Sim.Statevector.run (Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.x 0 ]) in
  Alcotest.(check (float 1e-9)) "exp(-1/2) survival" (exp (-0.5))
    (Sim.Density.fidelity_to_pure d one)

let test_trajectory_matches_density () =
  (* the Monte-Carlo sampler must agree with the exact channel evolution *)
  let circuit =
    Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.t 1 ]
  in
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.linear 2)
      ~durations:Arch.Durations.superconducting
  in
  let initial = Arch.Layout.identity ~n_logical:2 ~n_physical:2 in
  let r = Codar.Remapper.run ~maqam ~initial circuit in
  List.iter
    (fun (name, model) ->
      let exact = Sim.Density.fidelity model ~maqam ~original:circuit r in
      let sampled =
        Sim.Noise.fidelity ~trajectories:4000 ~seed:12 model ~maqam
          ~original:circuit r
      in
      Alcotest.(check bool)
        (Fmt.str "%s: sampled %.4f within 0.04 of exact %.4f" name sampled
           exact)
        true
        (Float.abs (sampled -. exact) < 0.04))
    [
      ("dephasing", Sim.Noise.dephasing_dominant ~t2:20.);
      ("damping", Sim.Noise.damping_dominant ~t1:20.);
      ("mixed", { Sim.Noise.t1 = 30.; t2 = 25. });
    ]

let test_gate_error_sampler_matches_density () =
  let circuit =
    Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ]
  in
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.linear 2)
      ~durations:Arch.Durations.superconducting
  in
  let initial = Arch.Layout.identity ~n_logical:2 ~n_physical:2 in
  let r = Codar.Remapper.run ~maqam ~initial circuit in
  let gate_error = { Sim.Noise.p1 = 0.02; p2 = 0.05 } in
  let model = { Sim.Noise.t1 = infinity; t2 = 1e12 } in
  let exact =
    Sim.Density.fidelity ~gate_error model ~maqam ~original:circuit r
  in
  let sampled =
    Sim.Noise.fidelity ~trajectories:4000 ~seed:5 ~gate_error model ~maqam
      ~original:circuit r
  in
  Alcotest.(check bool)
    (Fmt.str "sampled %.4f within 0.04 of exact %.4f" sampled exact)
    true
    (Float.abs (sampled -. exact) < 0.04);
  (* more gate error means less fidelity *)
  let worse =
    Sim.Density.fidelity
      ~gate_error:{ Sim.Noise.p1 = 0.1; p2 = 0.2 }
      model ~maqam ~original:circuit r
  in
  Alcotest.(check bool) "monotone in error rate" true (worse < exact)

(* ------------------------------------------------------------ reliability *)

(* ASAP over program gates on [n_physical] qubits: events and makespan *)
let asap ~n_physical gates =
  let l = Arch.Layout.identity ~n_logical:n_physical ~n_physical in
  let t =
    Schedule.Asap.timeline ~durations:sc ~n_physical ~initial:l ~final:l
      ~n_logical:n_physical
      (List.map (fun g -> (g, false)) gates)
  in
  ((Schedule.Timeline.to_routed t).events, t.makespan)

let estimate ~calibration ~n_physical r =
  Sim.Reliability.estimate ~calibration ~n_physical
    (Schedule.Timeline.of_routed r)

let estimated_success ~calibration ~n_physical r =
  (estimate ~calibration ~n_physical r).esp

let test_reliability_analytic () =
  (* hand-checkable schedule: H at [0,1), CX at [1,3) on a 2-qubit line *)
  let circuit = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ] in
  let events, makespan =
    asap ~n_physical:2 (Qc.Circuit.gates circuit)
  in
  let r =
    {
      Schedule.Routed.events;
      initial = Arch.Layout.identity ~n_logical:2 ~n_physical:2;
      final = Arch.Layout.identity ~n_logical:2 ~n_physical:2;
      makespan;
      n_logical = 2;
    }
  in
  let calibration =
    Arch.Calibration.make ~name:"test" ~one_qubit_fidelity:0.99
      ~two_qubit_fidelity:0.95 ~readout_fidelity:0.9 ~t1_cycles:100.
      ~t2_cycles:100.
  in
  (* gates: 0.99 * 0.95; decoherence: qubit 0 active 3 cycles, qubit 1
     active 2 cycles (first touched at t=1); Tphi = 200 with t1 = t2 = 100 *)
  let tphi = 200. in
  let dec t = exp (-.t /. 100.) *. exp (-.t /. tphi) in
  let expected = 0.99 *. 0.95 *. dec 3. *. dec 2. in
  Alcotest.(check (float 1e-9)) "analytic ESP" expected
    (estimated_success ~calibration ~n_physical:2 r)

let test_reliability_tokyo_vector () =
  (* hand-computed vector on the shipped superconducting (Tokyo) preset:
     H on q0 at [0,1), then SWAP q0<->q1 at [1,7) — the SWAP must cost
     three two-qubit fidelities (decomposed as 3 CX) *)
  let mk_event gate start duration =
    { Schedule.Routed.gate; start; duration; inserted = false }
  in
  let r =
    {
      Schedule.Routed.events =
        [ mk_event (Qc.Gate.h 0) 0 1; mk_event (Qc.Gate.swap 0 1) 1 6 ];
      initial = Arch.Layout.identity ~n_logical:2 ~n_physical:2;
      final = Arch.Layout.identity ~n_logical:2 ~n_physical:2;
      makespan = 7;
      n_logical = 2;
    }
  in
  let calibration = Arch.Calibration.superconducting in
  (* preset values pinned here on purpose: changing them must wake this
     test up, because BENCH_PR28.json and the t2 issue policy depend on them *)
  Alcotest.(check (float 0.)) "preset f1" 0.997
    (Arch.Calibration.one_qubit_fidelity calibration);
  Alcotest.(check (float 0.)) "preset f2" 0.965
    (Arch.Calibration.two_qubit_fidelity calibration);
  Alcotest.(check (float 0.)) "preset t1" 435.
    (Arch.Calibration.t1_cycles calibration);
  Alcotest.(check (float 0.)) "preset t2" 435.
    (Arch.Calibration.t2_cycles calibration);
  (* t1 = t2 = 435 => 1/Tphi = 1/435 - 1/870 = 1/870 *)
  let dec t = exp (-.t /. 435.) *. exp (-.t /. 870.) in
  let expected = 0.997 *. (0.965 ** 3.) *. dec 7. *. dec 6. in
  Alcotest.(check (float 1e-12)) "tokyo ESP vector" expected
    (estimated_success ~calibration ~n_physical:2 r)

let test_reliability_untouched_qubits_free () =
  (* a qubit never touched by any gate contributes no decoherence, however
     many physical qubits the device has *)
  let mk_event gate start duration =
    { Schedule.Routed.gate; start; duration; inserted = false }
  in
  let r n_physical =
    {
      Schedule.Routed.events = [ mk_event (Qc.Gate.h 0) 0 1 ];
      initial = Arch.Layout.identity ~n_logical:1 ~n_physical;
      final = Arch.Layout.identity ~n_logical:1 ~n_physical;
      makespan = 1;
      n_logical = 1;
    }
  in
  let calibration = Arch.Calibration.superconducting in
  let esp n =
    estimated_success ~calibration ~n_physical:n (r n)
  in
  Alcotest.(check (float 1e-15)) "spectators are free" (esp 2) (esp 20)

let test_calibration_for_durations () =
  (* every calibrated profile resolves to the preset of the same name;
     uniform has no calibration and must say so (the t2 objective and the
     record's esp field both key off this) *)
  List.iter
    (fun d ->
      match Arch.Calibration.for_durations d with
      | Some c ->
        Alcotest.(check string) "preset name matches profile"
          (Arch.Durations.name d) (Arch.Calibration.name c)
      | None ->
        Alcotest.failf "no calibration preset for %s" (Arch.Durations.name d))
    [
      Arch.Durations.superconducting;
      Arch.Durations.ion_trap;
      Arch.Durations.neutral_atom;
    ];
  Alcotest.(check bool) "uniform is uncalibrated" true
    (Arch.Calibration.for_durations Arch.Durations.uniform = None)

let test_reliability_direction () =
  (* a shorter schedule with the same gates must score higher *)
  let calibration = Arch.Calibration.superconducting in
  let gates = [ Qc.Gate.h 0; Qc.Gate.h 1; Qc.Gate.cx 0 1 ] in
  let packed, m1 = asap ~n_physical:2 gates in
  (* delay only the two-qubit gate: the qubits now idle for 50 cycles *)
  let stretched =
    List.map
      (fun e ->
        if Qc.Gate.is_two_qubit e.Schedule.Routed.gate then
          { e with Schedule.Routed.start = e.Schedule.Routed.start + 50 }
        else e)
      packed
  in
  let mk events makespan =
    {
      Schedule.Routed.events;
      initial = Arch.Layout.identity ~n_logical:2 ~n_physical:2;
      final = Arch.Layout.identity ~n_logical:2 ~n_physical:2;
      makespan;
      n_logical = 2;
    }
  in
  let esp r = estimated_success ~calibration ~n_physical:2 r in
  Alcotest.(check bool) "longer tail costs fidelity" true
    (esp (mk packed m1) > esp (mk stretched (m1 + 50)))

(* A schedule long enough that its ESP product underflows to 0 still has
   a finite ln ESP, the sum of the logs of the same factors, and a longer
   one ranks below it there. *)
let test_reliability_ln_underflow () =
  let calibration = Arch.Calibration.superconducting in
  (* one cx at a time on two qubits, f2 = 0.965 each: the gate product
     reaches the subnormals, the two qubits' decoherence takes it to 0 *)
  let chain n =
    let events, makespan =
      asap ~n_physical:2 (List.init n (fun _ -> Qc.Gate.cx 0 1))
    in
    {
      Schedule.Routed.events;
      initial = Arch.Layout.identity ~n_logical:2 ~n_physical:2;
      final = Arch.Layout.identity ~n_logical:2 ~n_physical:2;
      makespan;
      n_logical = 2;
    }
  in
  let n = 20_000 in
  let short = estimate ~calibration ~n_physical:2 (chain n)
  and long = estimate ~calibration ~n_physical:2 (chain (n + 1)) in
  Alcotest.(check (float 0.)) "linear ESP underflows" 0. short.esp;
  Alcotest.(check (float 0.)) "longer one too" 0. long.esp;
  (* n ln 0.965, plus two qubits active for the whole makespan with
     T1 = T2 = 435, so Tphi = 870 *)
  let active = float_of_int (chain n).makespan in
  let expected =
    (float_of_int n *. log 0.965)
    +. (2. *. (-.(active /. 435.) -. (active /. 870.)))
  in
  Alcotest.(check (float 1e-6)) "ln ESP is the sum of logs" expected
    short.ln_esp;
  Alcotest.(check bool) "the shorter schedule ranks higher" true
    (short.ln_esp > long.ln_esp)

(* ------------------------------------------------------------------ equiv *)

let test_equiv_detects_tampering () =
  let circuit = Workloads.Builders.qft 4 in
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.linear 4) ~durations:sc
  in
  let initial = Arch.Layout.identity ~n_logical:4 ~n_physical:4 in
  let r = Codar.Remapper.run ~maqam ~initial circuit in
  Alcotest.(check bool) "honest result passes" true
    (Sim.Equiv.routed_equivalent ~maqam ~original:circuit r);
  (* flip one CX direction *)
  let tampered =
    {
      r with
      Schedule.Routed.events =
        (match r.Schedule.Routed.events with
        | e :: rest -> (
          match e.Schedule.Routed.gate with
          | Qc.Gate.Two (k, a, b) ->
            { e with Schedule.Routed.gate = Qc.Gate.Two (k, b, a) } :: rest
          | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ ->
            { e with Schedule.Routed.gate = Qc.Gate.x 0 } :: rest)
        | [] -> []);
    }
  in
  Alcotest.(check bool) "tampered result fails" false
    (Sim.Equiv.routed_equivalent ~maqam ~original:circuit tampered)

let () =
  Alcotest.run "sim"
    [
      ( "statevector",
        [
          Alcotest.test_case "init" `Quick test_init;
          Alcotest.test_case "x and h" `Quick test_x_and_h;
          Alcotest.test_case "bell" `Quick test_bell;
          Alcotest.test_case "swap" `Quick test_swap_moves_amplitude;
          Alcotest.test_case "fidelity" `Quick test_fidelity_and_inner;
          Alcotest.test_case "measure rejected" `Quick test_measure_rejected;
          Alcotest.test_case "random state" `Quick test_random_state_normalised;
          Alcotest.test_case "embed" `Quick test_embed;
          QCheck_alcotest.to_alcotest prop_unitarity_preserves_norm;
        ] );
      ( "noise",
        [
          Alcotest.test_case "validation" `Quick test_noise_validation;
          Alcotest.test_case "noiseless limit" `Quick test_noiseless_limit;
          Alcotest.test_case "dephasing spares basis" `Quick
            test_dephasing_spares_basis_states;
          Alcotest.test_case "dephasing hurts superpositions" `Quick
            test_dephasing_hurts_superpositions;
          Alcotest.test_case "damping hurts |1>" `Quick
            test_damping_hurts_excited_states;
          Alcotest.test_case "shorter schedule wins" `Quick
            test_shorter_schedule_higher_fidelity;
        ] );
      ( "density",
        [
          Alcotest.test_case "pure state" `Quick test_density_pure_state;
          Alcotest.test_case "channel trace" `Quick test_density_channel_trace;
          Alcotest.test_case "damping analytic" `Quick
            test_density_damping_analytic;
          Alcotest.test_case "trajectory vs density" `Slow
            test_trajectory_matches_density;
          Alcotest.test_case "gate error vs density" `Slow
            test_gate_error_sampler_matches_density;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "analytic" `Quick test_reliability_analytic;
          Alcotest.test_case "tokyo vector" `Quick
            test_reliability_tokyo_vector;
          Alcotest.test_case "spectators free" `Quick
            test_reliability_untouched_qubits_free;
          Alcotest.test_case "calibration lookup" `Quick
            test_calibration_for_durations;
          Alcotest.test_case "direction" `Quick test_reliability_direction;
          Alcotest.test_case "ln ESP where the product underflows" `Quick
            test_reliability_ln_underflow;
        ] );
      ( "equiv",
        [ Alcotest.test_case "detects tampering" `Quick test_equiv_detects_tampering ]
      );
    ]
