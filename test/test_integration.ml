(* Cross-module integration tests: both routers over real workloads on the
   paper's devices, with full verification, exact state-vector equivalence
   on small devices, and direction checks on the paper's headline claims. *)

let sc = Arch.Durations.superconducting

let route_both maqam circuit =
  let initial = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
  let codar = Codar.Remapper.run ~maqam ~initial circuit in
  let sabre = Sabre.Router.run ~maqam ~initial circuit in
  (codar, sabre)

let verified maqam circuit r =
  match Schedule.Verify.check_all ~maqam ~original:circuit r with
  | Ok () -> true
  | Error e ->
    Fmt.epr "verification error: %a@." Schedule.Verify.pp_error e;
    false

(* ------------------------------------------- all devices × benchmark mix *)

let test_all_devices_verified () =
  let picks =
    [ "qft_6"; "ghz_8"; "bv_10"; "adder_8"; "tof_5"; "oracle_6"; "qaoa_8";
      "wstate_8"; "simon_8"; "qpe_6"; "grover_3" ]
  in
  List.iter
    (fun device ->
      let maqam = Arch.Maqam.make ~coupling:device ~durations:sc in
      List.iter
        (fun name ->
          match Workloads.Suite.find name with
          | None -> Alcotest.failf "missing benchmark %s" name
          | Some e ->
            let circuit = Lazy.force e.circuit in
            let codar, sabre = route_both maqam circuit in
            Alcotest.(check bool)
              (Fmt.str "codar %s on %s" name (Arch.Coupling.name device))
              true
              (verified maqam circuit codar);
            Alcotest.(check bool)
              (Fmt.str "sabre %s on %s" name (Arch.Coupling.name device))
              true
              (verified maqam circuit sabre))
        picks)
    Arch.Devices.evaluation_devices

(* state-vector equivalence on devices small enough to simulate *)
let test_statevector_equivalence () =
  let devices =
    [ Arch.Devices.ibm_q5; Arch.Devices.grid ~rows:3 ~cols:3;
      Arch.Devices.linear 6; Arch.Devices.ring 8 ]
  in
  List.iter
    (fun device ->
      let n = Arch.Coupling.n_qubits device in
      let maqam = Arch.Maqam.make ~coupling:device ~durations:sc in
      let circuits =
        [ Workloads.Builders.qft (min 5 n);
          Workloads.Builders.ghz (min 5 n);
          Workloads.Builders.random_circuit ~n:(min 5 n) ~gates:60
            ~two_qubit_fraction:0.5 ~seed:3 ]
      in
      List.iter
        (fun circuit ->
          let codar, sabre = route_both maqam circuit in
          Alcotest.(check bool)
            (Fmt.str "codar equiv on %s" (Arch.Coupling.name device))
            true
            (Sim.Equiv.routed_equivalent ~maqam ~original:circuit codar);
          Alcotest.(check bool)
            (Fmt.str "sabre equiv on %s" (Arch.Coupling.name device))
            true
            (Sim.Equiv.routed_equivalent ~maqam ~original:circuit sabre))
        circuits)
    devices

(* random-circuit fuzzing of the whole pipeline *)
let prop_random_pipeline =
  QCheck.Test.make ~count:25 ~name:"random circuits route and verify"
    QCheck.(pair (int_bound 1000) (int_range 3 6))
    (fun (seed, n) ->
      let circuit =
        Workloads.Builders.random_circuit ~n ~gates:40 ~two_qubit_fraction:0.5
          ~seed
      in
      let maqam =
        Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:2 ~cols:3)
          ~durations:sc
      in
      let codar, sabre = route_both maqam circuit in
      verified maqam circuit codar && verified maqam circuit sabre
      && Sim.Equiv.routed_equivalent ~maqam ~original:circuit codar
      && Sim.Equiv.routed_equivalent ~maqam ~original:circuit sabre)

(* ------------------------------------------------- headline claim shapes *)

let average xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let test_codar_speedup_direction () =
  (* Fig. 8's direction: over a medium benchmark mix, CODAR's average
     speedup vs SABRE must be clearly positive (paper: 1.21–1.26) *)
  let maqam = Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc in
  let picks =
    [ "qft_8"; "qft_12"; "qft_16"; "dj_10"; "oracle_10"; "qaoa_12"; "bv_12";
      "wstate_12"; "simon_10"; "qpe_8"; "tof_8"; "ghz_12" ]
  in
  let speedups =
    List.map
      (fun name ->
        match Workloads.Suite.find name with
        | None -> Alcotest.failf "missing %s" name
        | Some e ->
          let circuit = Lazy.force e.circuit in
          let codar, sabre = route_both maqam circuit in
          float_of_int sabre.Schedule.Routed.makespan
          /. float_of_int codar.Schedule.Routed.makespan)
      picks
  in
  let avg = average speedups in
  Alcotest.(check bool)
    (Fmt.str "average speedup %.3f >= 1.05" avg)
    true (avg >= 1.05)

let test_commutativity_ablation_direction () =
  (* the CF front is one of the two mechanisms; disabling it should not
     improve the average result *)
  let maqam = Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc in
  let picks = [ "qft_8"; "qft_12"; "dj_10"; "qaoa_12"; "oracle_10" ] in
  let makespans config =
    List.map
      (fun name ->
        match Workloads.Suite.find name with
        | None -> Alcotest.failf "missing %s" name
        | Some e ->
          let circuit = Lazy.force e.circuit in
          let initial = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
          (Codar.Remapper.run ~config ~maqam ~initial circuit)
            .Schedule.Routed.makespan)
      picks
  in
  let on = makespans Codar.Remapper.default_config in
  let off =
    makespans { Codar.Remapper.default_config with use_commutativity = false }
  in
  let sum = List.fold_left ( + ) 0 in
  Alcotest.(check bool)
    (Fmt.str "CF on (%d) <= CF off (%d) in total" (sum on) (sum off))
    true
    (sum on <= sum off)

let test_fidelity_direction () =
  (* Fig. 9's direction under dephasing: the faster circuit must not lose
     fidelity; compare both routers on two algorithms *)
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:3 ~cols:3) ~durations:sc
  in
  let model = Sim.Noise.dephasing_dominant ~t2:300. in
  List.iter
    (fun name ->
      match Workloads.Algorithms.find name with
      | None -> Alcotest.failf "missing algorithm %s" name
      | Some a ->
        let codar, sabre = route_both maqam a.circuit in
        let fc =
          Sim.Noise.fidelity ~trajectories:25 model ~maqam ~original:a.circuit
            codar
        in
        let fs =
          Sim.Noise.fidelity ~trajectories:25 model ~maqam ~original:a.circuit
            sabre
        in
        Alcotest.(check bool)
          (Fmt.str "%s: codar %.3f within noise of sabre %.3f" name fc fs)
          true
          (fc >= fs -. 0.1))
    [ "qft_5"; "bv_6" ]

(* ------------------------------------------------------- QASM end-to-end *)

let test_qasm_end_to_end () =
  (* print a workload, re-parse it, route it, verify — the full CLI path *)
  let circuit = Workloads.Builders.qft 6 in
  let reparsed = Qasm.Parser.parse (Qasm.Printer.to_string circuit) in
  Alcotest.(check bool) "round trip" true (Qc.Circuit.equal circuit reparsed);
  let maqam = Arch.Maqam.make ~coupling:Arch.Devices.ibm_q16_melbourne ~durations:sc in
  let codar, _ = route_both maqam reparsed in
  Alcotest.(check bool) "routed after round trip" true
    (verified maqam reparsed codar);
  (* routed output is printable and re-parsable too *)
  let physical = Schedule.Routed.to_physical_circuit ~n_physical:16 codar in
  let routed_round =
    Qasm.Parser.parse (Qasm.Printer.to_string physical)
  in
  Alcotest.(check bool) "routed round trip" true
    (Qc.Circuit.equal physical routed_round)

(* GHZ-8 in the ion trap's native interaction: each CX(c,t) written as
   Maslov's Ry(π/2)_c · XX(π/4) · Rx(−π/2)_c · Rx(−π/2)_t · Ry(−π/2)_c,
   with [Gate.xx a] = exp(−i(a/2) X⊗X), so XX(π/4) is [xx (π/2)] *)
let ghz8_xx =
  let h = Float.pi /. 2. in
  Qc.Circuit.make ~n_qubits:8
    (Qc.Gate.h 0
    :: List.concat
         (List.init 7 (fun c ->
              let t = c + 1 in
              [
                Qc.Gate.ry h c;
                Qc.Gate.xx h c t;
                Qc.Gate.rx (-.h) c;
                Qc.Gate.rx (-.h) t;
                Qc.Gate.ry (-.h) c;
              ])))

let test_ion_trap_no_swaps () =
  (* all-to-all connectivity: CODAR must never insert a SWAP, whatever the
     durations *)
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.fully_connected 8)
      ~durations:Arch.Durations.ion_trap
  in
  List.iter
    (fun circuit ->
      let initial = Arch.Layout.identity ~n_logical:(Qc.Circuit.n_qubits circuit) ~n_physical:8 in
      let r = Codar.Remapper.run ~maqam ~initial circuit in
      Alcotest.(check int) "no swaps on all-to-all" 0
        (Schedule.Routed.swap_count r);
      match Schedule.Verify.check_all ~maqam ~original:circuit r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e)
    [ Workloads.Builders.qft 8; ghz8_xx ]

(* 36-qubit programs on Sycamore only (the paper's rule) *)
let test_sycamore_36q () =
  let maqam = Arch.Maqam.make ~coupling:Arch.Devices.sycamore_54 ~durations:sc in
  match Workloads.Suite.find "ghz_36" with
  | None -> Alcotest.fail "ghz_36 missing"
  | Some e ->
    let circuit = Lazy.force e.circuit in
    let codar, sabre = route_both maqam circuit in
    Alcotest.(check bool) "codar verified" true (verified maqam circuit codar);
    Alcotest.(check bool) "sabre verified" true (verified maqam circuit sabre)

let () =
  Alcotest.run "integration"
    [
      ( "correctness",
        [
          Alcotest.test_case "all devices verified" `Slow
            test_all_devices_verified;
          Alcotest.test_case "statevector equivalence" `Slow
            test_statevector_equivalence;
          QCheck_alcotest.to_alcotest prop_random_pipeline;
        ] );
      ( "claims",
        [
          Alcotest.test_case "speedup direction" `Slow
            test_codar_speedup_direction;
          Alcotest.test_case "ablation direction" `Slow
            test_commutativity_ablation_direction;
          Alcotest.test_case "fidelity direction" `Slow test_fidelity_direction;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "qasm round trip + route" `Quick
            test_qasm_end_to_end;
          Alcotest.test_case "ion trap no swaps" `Quick test_ion_trap_no_swaps;
          Alcotest.test_case "sycamore 36q" `Slow test_sycamore_36q;
        ] );
    ]
