(* Tests for the SABRE baseline and its reverse-traversal initial mapping. *)

let sc = Arch.Durations.superconducting

let maqam_linear n =
  Arch.Maqam.make ~coupling:(Arch.Devices.linear n) ~durations:sc

let maqam_tokyo =
  Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc

let identity nl np = Arch.Layout.identity ~n_logical:nl ~n_physical:np

let test_no_swaps_when_adjacent () =
  let circuit =
    Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.cx 0 1; Qc.Gate.cx 1 2 ]
  in
  let r = Sabre.Router.run ~maqam:(maqam_linear 3) ~initial:(identity 3 3) circuit in
  Alcotest.(check int) "no swaps" 0 (Schedule.Routed.swap_count r);
  Alcotest.(check int) "asap makespan" 4 r.makespan

let test_routes_distant_cx () =
  let circuit = Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.cx 0 3 ] in
  let r = Sabre.Router.run ~maqam:(maqam_linear 4) ~initial:(identity 4 4) circuit in
  Alcotest.(check bool) "swaps inserted" true (Schedule.Routed.swap_count r >= 2);
  match
    Schedule.Verify.check_all ~maqam:(maqam_linear 4) ~original:circuit r
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e

let test_verified_on_qft () =
  let circuit = Workloads.Builders.qft 8 in
  let initial = identity 8 20 in
  let r = Sabre.Router.run ~maqam:maqam_tokyo ~initial circuit in
  (match Schedule.Verify.check_all ~maqam:maqam_tokyo ~original:circuit r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e);
  (* SABRE reorders only across independent DAG branches — never by
     commutation — so the replayed multiset of logical gates is exactly the
     original's *)
  match Schedule.Verify.replay_logical r with
  | Ok replay ->
    Alcotest.(check int) "replay length" (Qc.Circuit.length circuit)
      (List.length replay);
    Alcotest.(check bool) "same multiset of gates" true
      (List.equal Qc.Gate.equal
         (List.sort Qc.Gate.compare replay)
         (List.sort Qc.Gate.compare (Qc.Circuit.gates circuit)))
  | Error e -> Alcotest.failf "replay: %a" Schedule.Verify.pp_error e

let test_statevector_equiv () =
  let circuit = Workloads.Builders.qft 5 in
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:2 ~cols:3) ~durations:sc
  in
  let r = Sabre.Router.run ~maqam ~initial:(identity 5 6) circuit in
  Alcotest.(check bool) "equivalent" true
    (Sim.Equiv.routed_equivalent ~maqam ~original:circuit r)

let test_decay_discourages_repeats () =
  (* with decay disabled the router may ping-pong more; we only check the
     config plumbing works and both settings stay correct *)
  let circuit = Workloads.Builders.qft 6 in
  let config = { Sabre.Router.default_config with decay_delta = 0. } in
  let r =
    Sabre.Router.run ~config ~maqam:(maqam_linear 6) ~initial:(identity 6 6)
      circuit
  in
  match
    Schedule.Verify.check_all ~maqam:(maqam_linear 6) ~original:circuit r
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e

let test_wide_circuit_rejected () =
  let circuit = Qc.Circuit.make ~n_qubits:5 [ Qc.Gate.h 4 ] in
  Alcotest.(check bool) "width check" true
    (try
       ignore
         (Sabre.Router.run ~maqam:(maqam_linear 3) ~initial:(identity 5 5)
            circuit);
       false
     with Invalid_argument _ -> true)

let test_reverse_traversal () =
  let circuit = Workloads.Builders.qft 6 in
  let maqam = maqam_tokyo in
  let layout = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
  Alcotest.(check int) "logical width" 6 (Arch.Layout.n_logical layout);
  Alcotest.(check int) "physical width" 20 (Arch.Layout.n_physical layout);
  (* the produced layout must be usable by both routers *)
  let c = Codar.Remapper.run ~maqam ~initial:layout circuit in
  let s = Sabre.Router.run ~maqam ~initial:layout circuit in
  List.iter
    (fun r ->
      match Schedule.Verify.check_all ~maqam ~original:circuit r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e)
    [ c; s ];
  (* the reverse-traversal layout should beat (or match) a pessimal layout
     for SABRE itself on average-sized input; just require it not to crash
     and give a finite result *)
  Alcotest.(check bool) "finite makespan" true (s.makespan > 0)

let test_extended_window_config () =
  let circuit = Workloads.Builders.qft 6 in
  List.iter
    (fun extended_size ->
      let config = { Sabre.Router.default_config with extended_size } in
      let r =
        Sabre.Router.run ~config ~maqam:maqam_tokyo ~initial:(identity 6 20)
          circuit
      in
      match Schedule.Verify.check_all ~maqam:maqam_tokyo ~original:circuit r with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "verify (E=%d): %a" extended_size
          Schedule.Verify.pp_error e)
    [ 0; 5; 50 ]

let test_iterations_guard () =
  let circuit = Workloads.Builders.qft 4 in
  List.iter
    (fun iterations ->
      Alcotest.(check bool)
        (Printf.sprintf "iterations = %d refused" iterations)
        true
        (try
           ignore
             (Sabre.Initial_mapping.reverse_traversal ~iterations
                ~maqam:maqam_tokyo circuit);
           false
         with Invalid_argument _ -> true))
    [ 0; -1; min_int ]

(* --- the incremental router against the verbatim pre-incremental one --- *)

let layout_t = Alcotest.testable Arch.Layout.pp Arch.Layout.equal
let gates_t = Alcotest.(list (testable Qc.Gate.pp Qc.Gate.equal))

(* Equal placement layouts, then equal gate lists and final layouts when
   routing from that placement. *)
let check_against_reference ~what maqam circuit =
  let placed = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
  Alcotest.check layout_t (what ^ ": placement")
    (Reference_sabre.reverse_traversal ~maqam circuit)
    placed;
  let gates, final = Sabre.Router.route_gates ~maqam ~initial:placed circuit in
  let ref_gates, ref_final =
    Reference_sabre.route_gates ~maqam ~initial:placed circuit
  in
  Alcotest.check gates_t (what ^ ": gates") ref_gates gates;
  Alcotest.check layout_t (what ^ ": final layout") ref_final final

let fig8_maqams =
  List.map
    (fun c -> Arch.Maqam.make ~coupling:c ~durations:sc)
    Arch.Devices.evaluation_devices

(* the Fig. 8 protocol's cells: 16-qubit-or-smaller entries everywhere, all
   71 on Sycamore *)
let fig8_cells maqam =
  let device = Arch.Maqam.coupling maqam in
  if Arch.Coupling.n_qubits device >= 54 then Workloads.Suite.all
  else Workloads.Suite.fitting ~max_qubits:16

let test_reference_fig8 () =
  let cells = ref 0 in
  List.iter
    (fun maqam ->
      List.iter
        (fun (e : Workloads.Suite.entry) ->
          if e.name <> "rand_16_30k" then begin
            incr cells;
            check_against_reference
              ~what:
                (e.name ^ " on "
                ^ Arch.Coupling.name (Arch.Maqam.coupling maqam))
              maqam (Lazy.force e.circuit)
          end)
        (fig8_cells maqam))
    fig8_maqams;
  Alcotest.(check int) "cells" 271 !cells

let test_reference_rand_prefix () =
  let full =
    Lazy.force (Option.get (Workloads.Suite.find "rand_16_30k")).circuit
  in
  let prefix =
    Qc.Circuit.make ~n_qubits:(Qc.Circuit.n_qubits full)
      (List.filteri (fun i _ -> i < 3000) (Qc.Circuit.gates full))
  in
  List.iter
    (fun maqam ->
      check_against_reference
        ~what:("rand_16_30k[0,3000) on "
              ^ Arch.Coupling.name (Arch.Maqam.coupling maqam))
        maqam prefix)
    fig8_maqams

let devices_small =
  [ maqam_linear 5; maqam_tokyo;
    Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:2 ~cols:3) ~durations:sc;
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q5 ~durations:sc ]

let prop_reference_fuzz =
  QCheck.Test.make ~count:150 ~name:"incremental = reference on Fuzz.Gen"
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, d) ->
      let maqam = List.nth devices_small d in
      let rng = Random.State.make [| seed |] in
      let cfg =
        Fuzz.Gen.config
          ~n_qubits:(1 + Random.State.int rng (Arch.Maqam.n_qubits maqam))
          ~gates:(Random.State.int rng 60) ()
      in
      let circuit = Fuzz.Gen.circuit_rng rng cfg in
      let n_logical = Qc.Circuit.n_qubits circuit in
      let initial =
        Arch.Layout.random rng ~n_logical
          ~n_physical:(Arch.Maqam.n_qubits maqam)
      in
      (* a rare thrashing input exhausts the SWAP budget: both routers
         must then give up alike *)
      let outcome f =
        match f () with
        | v -> Ok v
        | exception (Sabre.Router.Stuck m | Reference_sabre.Stuck m) -> Error m
      in
      let same_route (g, l) (g', l') =
        List.equal Qc.Gate.equal g g' && Arch.Layout.equal l l'
      in
      Result.equal ~ok:same_route ~error:String.equal
        (outcome (fun () -> Sabre.Router.route_gates ~maqam ~initial circuit))
        (outcome (fun () ->
             Reference_sabre.route_gates ~maqam ~initial circuit))
      && Result.equal ~ok:Arch.Layout.equal ~error:String.equal
           (outcome (fun () ->
                Sabre.Initial_mapping.reverse_traversal ~initial ~maqam
                  circuit))
           (outcome (fun () ->
                Reference_sabre.reverse_traversal ~initial ~maqam circuit)))

(* Systhreads of one domain share its scratch set: a route that finds it
   busy must work on its own, never on the other route's arrays. *)
let test_threads_share_domain () =
  let circuit = Workloads.Builders.qft 12 in
  let expected =
    Sabre.Initial_mapping.reverse_traversal ~maqam:maqam_tokyo circuit
  in
  let ok = Atomic.make true in
  let threads =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 60 do
              match
                Sabre.Initial_mapping.reverse_traversal ~maqam:maqam_tokyo
                  circuit
              with
              | l -> if not (Arch.Layout.equal l expected) then Atomic.set ok false
              | exception _ -> Atomic.set ok false
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check bool) "every thread's layout equals the sequential one"
    true (Atomic.get ok)

let () =
  Alcotest.run "sabre"
    [
      ( "router",
        [
          Alcotest.test_case "no swaps when adjacent" `Quick
            test_no_swaps_when_adjacent;
          Alcotest.test_case "routes distant cx" `Quick test_routes_distant_cx;
          Alcotest.test_case "verified qft" `Quick test_verified_on_qft;
          Alcotest.test_case "statevector equiv" `Quick test_statevector_equiv;
          Alcotest.test_case "decay config" `Quick test_decay_discourages_repeats;
          Alcotest.test_case "wide rejected" `Quick test_wide_circuit_rejected;
          Alcotest.test_case "extended set sizes" `Quick
            test_extended_window_config;
        ] );
      ( "initial mapping",
        [
          Alcotest.test_case "reverse traversal" `Quick test_reverse_traversal;
          Alcotest.test_case "iterations < 1 refused" `Quick
            test_iterations_guard;
          Alcotest.test_case "systhreads of one domain" `Quick
            test_threads_share_domain;
        ] );
      ( "reference",
        [
          Alcotest.test_case "fig8 cells but rand_16_30k" `Quick
            test_reference_fig8;
          Alcotest.test_case "rand_16_30k prefix, every device" `Quick
            test_reference_rand_prefix;
          QCheck_alcotest.to_alcotest prop_reference_fuzz;
        ] );
    ]
