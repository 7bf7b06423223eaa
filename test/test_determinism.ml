(* Determinism and behavior-preservation suite for the incremental router.

   The router overhaul (stateful CF cache, per-cycle pair caches, adjacency
   bitsets, candidate regeneration) is required to be a pure refactor of the
   routing *behavior*: routing is a deterministic function of
   (circuit, machine, initial layout), and the optimized router must emit an
   event stream identical to the seed implementation's, kept verbatim in
   {!Reference_remapper}. *)

let sc = Arch.Durations.superconducting
let tokyo = Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc

let grid33 =
  Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:3 ~cols:3) ~durations:sc

let pp_event ppf (e : Schedule.Routed.event) =
  Fmt.pf ppf "%s@%d+%d%s"
    (Qc.Gate.to_string e.gate)
    e.start e.duration
    (if e.inserted then "*" else "")

let event_eq (a : Schedule.Routed.event) (b : Schedule.Routed.event) =
  Qc.Gate.equal a.gate b.gate
  && a.start = b.start && a.duration = b.duration && a.inserted = b.inserted

let event_t = Alcotest.testable pp_event event_eq

(* Ten benchmarks spread across the suite's families, small enough to route
   a handful of times each in a unit test. *)
let subset =
  let small =
    List.filter
      (fun (e : Workloads.Suite.entry) ->
        e.n_qubits <= 16 && Qc.Circuit.length (Lazy.force e.circuit) <= 1200)
      Workloads.Suite.all
  in
  let step = max 1 (List.length small / 10) in
  let spread = List.filteri (fun i _ -> i mod step = 0) small in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take 10 spread

let route ?stats maqam (e : Workloads.Suite.entry) =
  let initial =
    Arch.Layout.identity ~n_logical:e.n_qubits
      ~n_physical:(Arch.Maqam.n_qubits maqam)
  in
  Codar.Remapper.run ?stats ~maqam ~initial (Lazy.force e.circuit)

let test_route_twice_identical () =
  Alcotest.(check int) "subset size" 10 (List.length subset);
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let a = route tokyo e in
      let b = route tokyo e in
      (* instrumentation must observe, never perturb *)
      let c = route ~stats:(Codar.Stats.create ()) tokyo e in
      Alcotest.(check (list event_t)) (e.name ^ ": run1 = run2") a.events
        b.events;
      Alcotest.(check (list event_t)) (e.name ^ ": stats run identical")
        a.events c.events;
      Alcotest.(check int) (e.name ^ ": makespan") a.makespan b.makespan)
    subset

let test_matches_seed_reference () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let initial =
        Arch.Layout.identity ~n_logical:e.n_qubits ~n_physical:20
      in
      let circuit = Lazy.force e.circuit in
      let now = Codar.Remapper.run ~maqam:tokyo ~initial circuit in
      let seed = Reference_remapper.run ~maqam:tokyo ~initial circuit in
      Alcotest.(check (list event_t))
        (e.name ^ ": events = seed router")
        seed.events now.events;
      Alcotest.(check int) (e.name ^ ": makespan") seed.makespan now.makespan)
    subset

let prop_random_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"random circuits: optimized router = seed router"
    QCheck.(pair (int_bound 10_000) (int_range 3 9))
    (fun (seed, n) ->
      let circuit =
        Workloads.Builders.random_circuit ~n ~gates:40 ~two_qubit_fraction:0.6
          ~seed
      in
      let initial = Arch.Layout.identity ~n_logical:n ~n_physical:9 in
      let a = Codar.Remapper.run ~maqam:grid33 ~initial circuit in
      let b = Reference_remapper.run ~maqam:grid33 ~initial circuit in
      List.length a.Schedule.Routed.events
      = List.length b.Schedule.Routed.events
      && List.for_all2 event_eq a.events b.events)

(* Devices past the paper's, pinned event for event against the seed
   router: random circuits on heavy-hex-7 (115 qubits) and grid-10x10
   (100) under the identity layout, where CODAR inserts hundreds of
   SWAPs. *)
let test_large_matches_seed_reference () =
  List.iter
    (fun (device, n, gates, seed) ->
      let coupling = Option.get (Arch.Devices.by_name device) in
      let maqam = Arch.Maqam.make ~coupling ~durations:sc in
      let circuit =
        Workloads.Builders.random_circuit ~n ~gates ~two_qubit_fraction:0.45
          ~seed
      in
      let initial =
        Arch.Layout.identity ~n_logical:n
          ~n_physical:(Arch.Coupling.n_qubits coupling)
      in
      let now = Codar.Remapper.run ~maqam ~initial circuit in
      let seed_r = Reference_remapper.run ~maqam ~initial circuit in
      let what = Fmt.str "%dq x %d (seed %d) on %s" n gates seed device in
      Alcotest.(check (list event_t)) (what ^ ": events = seed router")
        seed_r.events now.events;
      Alcotest.(check int) (what ^ ": makespan") seed_r.makespan now.makespan)
    [ ("heavy-hex-7", 80, 300, 1); ("grid-10x10", 100, 500, 4) ]

let has_measure (c : Qc.Circuit.t) =
  Array.exists
    (function Qc.Gate.Measure _ -> true | _ -> false)
    (Qc.Circuit.gate_array c)

let test_unitary_equivalence () =
  let checked = ref 0 in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let circuit = Lazy.force e.circuit in
      if e.n_qubits <= 8 && not (has_measure circuit) then begin
        let r = route grid33 e in
        incr checked;
        Alcotest.(check bool)
          (e.name ^ ": statevector equivalent")
          true
          (Sim.Equiv.routed_equivalent ~maqam:grid33 ~original:circuit r)
      end)
    subset;
  Alcotest.(check bool) "checked at least 3 benchmarks" true (!checked >= 3)

let () =
  Alcotest.run "determinism"
    [
      ( "determinism",
        [
          Alcotest.test_case "route twice, identical events" `Quick
            test_route_twice_identical;
        ] );
      ( "reference equivalence",
        [
          Alcotest.test_case "10-benchmark subset = seed router" `Quick
            test_matches_seed_reference;
          QCheck_alcotest.to_alcotest prop_random_matches_reference;
          Alcotest.test_case "heavy-hex-7 and grid-10x10 = seed router"
            `Quick test_large_matches_seed_reference;
        ] );
      ( "unitary equivalence",
        [
          Alcotest.test_case "small benchmarks simulate equal" `Quick
            test_unitary_equivalence;
        ] );
    ]
