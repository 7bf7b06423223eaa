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
  match Schedule.Verify.replay_logical (Schedule.Timeline.of_routed r) with
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

(* Devices of 100 qubits and more, beyond the paper's: delta scoring on
   their long distances, pinned against the reference. *)
let test_reference_large () =
  List.iter
    (fun (name, seed) ->
      let coupling = Option.get (Arch.Devices.by_name name) in
      let maqam = Arch.Maqam.make ~coupling ~durations:sc in
      let circuit =
        Workloads.Builders.random_circuit ~n:80 ~gates:300
          ~two_qubit_fraction:0.45 ~seed
      in
      check_against_reference
        ~what:(Printf.sprintf "random 80q x 300 (seed %d) on %s" seed name)
        maqam circuit)
    [ ("grid-10x10", 5); ("heavy-hex-7", 7) ]

(* A pair across components stays unreachable after any SWAP: placement
   fails with [Invalid_argument] as the reference does, rather than
   scoring with a negative distance. *)
let test_reference_disconnected () =
  let coupling = Arch.Coupling.make ~name:"islands" ~n:4 [ (0, 1); (2, 3) ] in
  let maqam = Arch.Maqam.make ~coupling ~durations:sc in
  let circuit = Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.cx 1 2; Qc.Gate.cx 0 3 ] in
  let refused f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "reference refuses" true
    (refused (fun () -> Reference_sabre.reverse_traversal ~maqam circuit));
  Alcotest.(check bool) "incremental refuses" true
    (refused (fun () -> Sabre.Initial_mapping.reverse_traversal ~maqam circuit))

let devices_small =
  [ maqam_linear 5; maqam_tokyo;
    Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:2 ~cols:3) ~durations:sc;
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q5 ~durations:sc ]

(* Beyond the four small devices: Sycamore and the 81-qubit grid-9x9,
   whose long distances the small devices lack; and every
   configuration knob, so the carried step state (pairs and totals kept
   across SWAP steps) and the stamped decay meet resets after every SWAP,
   after five and never, an empty extended set and decay off. A decay of
   0.25 per SWAP, beside the default 0.001, is large enough that a total
   carried wrong reorders the candidates. *)
let devices_fuzz =
  devices_small
  @ [
      Arch.Maqam.make ~coupling:Arch.Devices.sycamore_54 ~durations:sc;
      Arch.Maqam.make
        ~coupling:(Option.get (Arch.Devices.by_name "grid-9x9"))
        ~durations:sc;
    ]

let prop_reference_fuzz =
  QCheck.Test.make ~count:500 ~name:"incremental = reference on Fuzz.Gen"
    QCheck.(
      triple (int_bound 1_000_000)
        (int_bound (List.length devices_fuzz - 1))
        (int_bound 26))
    (fun (seed, d, k) ->
      let maqam = List.nth devices_fuzz d in
      let extended_size = [| 0; 1; 20 |].(k mod 3)
      and decay_reset = [| 1; 5; 1000 |].(k / 3 mod 3)
      and decay_delta = [| 0.; 0.001; 0.25 |].(k / 9) in
      let config =
        {
          Sabre.Router.default_config with
          extended_size;
          decay_reset;
          decay_delta;
        }
      and ref_config =
        {
          Reference_sabre.default_config with
          extended_size;
          decay_reset;
          decay_delta;
        }
      in
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
        (outcome (fun () ->
             Sabre.Router.route_gates ~config ~maqam ~initial circuit))
        (outcome (fun () ->
             Reference_sabre.route_gates ~config:ref_config ~maqam ~initial
               circuit))
      && Result.equal ~ok:Arch.Layout.equal ~error:String.equal
           (outcome (fun () ->
                Sabre.Initial_mapping.reverse_traversal ~initial ~config
                  ~maqam circuit))
           (outcome (fun () ->
                Reference_sabre.reverse_traversal ~initial ~config:ref_config
                  ~maqam circuit)))

(* The reference's front scan on a hand-built DAG: h q0 and x q2 start
   free; cx q0,q1 waits for h. *)
let test_reference_front_layer () =
  let d =
    Qc.Dag.of_circuit
      (Qc.Circuit.make ~n_qubits:3
         [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.x 2; Qc.Gate.cx 1 2 ])
  in
  let done_ = Array.make 4 false in
  Alcotest.(check (list int)) "initial front" [ 0; 2 ]
    (Reference_sabre.front_layer d ~done_);
  done_.(0) <- true;
  Alcotest.(check (list int)) "front after h" [ 1; 2 ]
    (Reference_sabre.front_layer d ~done_)

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

(* Live words after a full compaction. *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* A placement whose working arrays grow past [Schedule.Scratch.cap_words]
   (SABRE keeps about 10 words per gate) leaves its domain no larger
   than before it; the set it grew is dropped on release. *)
let test_scratch_cap () =
  let n = (Schedule.Scratch.cap_words / 8) + 1 in
  let circuit =
    Qc.Circuit.make ~n_qubits:2
      (List.init n (fun i ->
           if i land 1 = 0 then Qc.Gate.h 0 else Qc.Gate.cx 0 1))
  in
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.linear 2)
      ~durations:Arch.Durations.superconducting
  in
  let grown =
    Domain.join
      (Domain.spawn (fun () ->
           let before = live_words () in
           ignore
             (Sys.opaque_identity
                (Sabre.Initial_mapping.reverse_traversal ~maqam circuit));
           live_words () - before))
  in
  if grown * (Sys.word_size / 8) > 1 lsl 20 then
    Alcotest.failf "a %d-gate placement left its domain %d words larger" n
      grown

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
          Alcotest.test_case "a set past the cap is dropped" `Quick
            test_scratch_cap;
        ] );
      ( "reference",
        [
          Alcotest.test_case "front layer" `Quick test_reference_front_layer;
          Alcotest.test_case "fig8 cells but rand_16_30k" `Quick
            test_reference_fig8;
          Alcotest.test_case "rand_16_30k prefix, every device" `Quick
            test_reference_rand_prefix;
          Alcotest.test_case "large devices: grid-10x10, heavy-hex-7" `Quick
            test_reference_large;
          Alcotest.test_case "disconnected device" `Quick
            test_reference_disconnected;
          QCheck_alcotest.to_alcotest prop_reference_fuzz;
        ] );
    ]
