(* Tests for the [schedule] library: ASAP timing, routed-result helpers and
   the three-level verifier. *)

let sc = Arch.Durations.superconducting

let maqam_linear4 =
  Arch.Maqam.make ~coupling:(Arch.Devices.linear 4) ~durations:sc

(* ------------------------------------------------------------------- asap *)

(* ASAP over [tagged] (gate, router-inserted) on [n_physical] qubits *)
let asap_tagged ~n_physical tagged =
  let l = Arch.Layout.identity ~n_logical:n_physical ~n_physical in
  Schedule.Asap.timeline ~durations:sc ~n_physical ~initial:l ~final:l
    ~n_logical:n_physical tagged

(* program gates alone: the events in list form and the makespan *)
let asap ~n_physical gates =
  let t = asap_tagged ~n_physical (List.map (fun g -> (g, false)) gates) in
  ((Schedule.Timeline.to_routed t).events, t.makespan)

let test_asap_serial_chain () =
  let gates = [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.h 1 ] in
  let events, makespan = asap ~n_physical:2 gates in
  let starts = List.map (fun e -> e.Schedule.Routed.start) events in
  Alcotest.(check (list int)) "starts" [ 0; 1; 3 ] starts;
  Alcotest.(check int) "makespan" 4 makespan

let test_asap_parallel () =
  let gates = [ Qc.Gate.h 0; Qc.Gate.h 1; Qc.Gate.cx 2 3 ] in
  let _, makespan = asap ~n_physical:4 gates in
  Alcotest.(check int) "parallel makespan" 2 makespan

let test_asap_barrier () =
  (* barrier on {0,1} forces the later h 1 to wait for h 0's finish *)
  let gates =
    [ Qc.Gate.cx 0 1; Qc.Gate.barrier [ 0; 1; 2 ]; Qc.Gate.h 2 ]
  in
  let events, _ = asap ~n_physical:3 gates in
  let h2 = List.nth events 2 in
  Alcotest.(check int) "h2 fenced behind cx" 2 h2.Schedule.Routed.start;
  (* empty-list barrier fences the whole device *)
  let gates = [ Qc.Gate.cx 0 1; Qc.Gate.barrier []; Qc.Gate.h 3 ] in
  let events, _ = asap ~n_physical:4 gates in
  Alcotest.(check int) "global fence" 2
    (List.nth events 2).Schedule.Routed.start

let test_asap_durations_used () =
  let gates = [ Qc.Gate.swap 0 1; Qc.Gate.cx 0 1 ] in
  let _, makespan = asap ~n_physical:2 gates in
  Alcotest.(check int) "swap then cx" 8 makespan

(* ----------------------------------------------------------------- routed *)

let route_linear4 gates =
  let circuit = Qc.Circuit.make ~n_qubits:4 gates in
  let initial = Arch.Layout.identity ~n_logical:4 ~n_physical:4 in
  (circuit, Codar.Remapper.run ~maqam:maqam_linear4 ~initial circuit)

let test_routed_helpers () =
  let _, r = route_linear4 [ Qc.Gate.cx 0 3; Qc.Gate.h 1 ] in
  Alcotest.(check bool) "swap count positive" true (Schedule.Routed.swap_count r > 0);
  Alcotest.(check int) "gate count = events" (List.length r.events)
    (Schedule.Routed.gate_count r);
  let phys = Schedule.Routed.to_physical_circuit ~n_physical:4 r in
  Alcotest.(check int) "physical circuit width" 4 (Qc.Circuit.n_qubits phys);
  let sorted = Schedule.Routed.events_by_start r in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) ->
      a.Schedule.Routed.start <= b.Schedule.Routed.start && nondecreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "events_by_start sorted" true (nondecreasing sorted)

(* ----------------------------------------------------------------- verify *)

let test_verify_ok () =
  let circuit, r =
    route_linear4 [ Qc.Gate.h 0; Qc.Gate.cx 0 3; Qc.Gate.t 2 ]
  in
  (match Schedule.Verify.check_all ~maqam:maqam_linear4 ~original:circuit r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected OK, got %a" Schedule.Verify.pp_error e)

let event ?(inserted = false) gate start duration =
  { Schedule.Routed.gate; start; duration; inserted }

let manual_result events =
  let initial = Arch.Layout.identity ~n_logical:4 ~n_physical:4 in
  Schedule.Timeline.of_routed
    {
      Schedule.Routed.events;
      initial;
      final = initial;
      makespan =
        List.fold_left (fun acc e -> max acc (Schedule.Routed.finish e)) 0 events;
      n_logical = 4;
    }

let test_verify_not_adjacent () =
  let r = manual_result [ event (Qc.Gate.cx 0 2) 0 2 ] in
  match Schedule.Verify.check_hardware ~maqam:maqam_linear4 r with
  | Error (Schedule.Verify.Not_adjacent _) -> ()
  | Ok () -> Alcotest.fail "expected Not_adjacent"
  | Error e -> Alcotest.failf "wrong error %a" Schedule.Verify.pp_error e

let test_verify_overlap () =
  let r =
    manual_result [ event (Qc.Gate.cx 0 1) 0 2; event (Qc.Gate.h 1) 1 1 ]
  in
  match Schedule.Verify.check_hardware ~maqam:maqam_linear4 r with
  | Error (Schedule.Verify.Overlap (1, _, _)) -> ()
  | Ok () -> Alcotest.fail "expected Overlap"
  | Error e -> Alcotest.failf "wrong error %a" Schedule.Verify.pp_error e

let test_verify_bad_duration () =
  let r = manual_result [ event (Qc.Gate.cx 0 1) 0 7 ] in
  match Schedule.Verify.check_timing ~maqam:maqam_linear4 r with
  | Error (Schedule.Verify.Bad_duration (_, 2)) -> ()
  | Ok () -> Alcotest.fail "expected Bad_duration"
  | Error e -> Alcotest.failf "wrong error %a" Schedule.Verify.pp_error e

let test_verify_final_layout () =
  (* an inserted SWAP event not reflected in [final] must be caught *)
  let r = manual_result [ event ~inserted:true (Qc.Gate.swap 0 1) 0 6 ] in
  match Schedule.Verify.replay_logical r with
  | Error Schedule.Verify.Bad_final_layout -> ()
  | Ok _ -> Alcotest.fail "expected Bad_final_layout"
  | Error e -> Alcotest.failf "wrong error %a" Schedule.Verify.pp_error e

let test_verify_equivalence_tamper () =
  (* routed result drops a gate: equivalence must fail *)
  let original =
    Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ]
  in
  let r = manual_result [ event (Qc.Gate.h 0) 0 1 ] in
  (match Schedule.Verify.check_equivalence ~original r with
  | Error (Schedule.Verify.Leftover_original_gates 1) -> ()
  | Ok () -> Alcotest.fail "expected Leftover"
  | Error e -> Alcotest.failf "wrong error %a" Schedule.Verify.pp_error e);
  (* routed result contains a foreign gate *)
  let r =
    manual_result
      [ event (Qc.Gate.h 0) 0 1; event (Qc.Gate.x 1) 1 1;
        event (Qc.Gate.cx 0 1) 2 2 ]
  in
  match Schedule.Verify.check_equivalence ~original r with
  | Error (Schedule.Verify.Unmatched_logical_gate _) -> ()
  | Ok () -> Alcotest.fail "expected Unmatched"
  | Error e -> Alcotest.failf "wrong error %a" Schedule.Verify.pp_error e

let test_verify_reorder_rules () =
  (* commuting reorder accepted: the two CX share a target *)
  let original =
    Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.cx 0 1; Qc.Gate.cx 2 1 ]
  in
  let r =
    manual_result
      [ event (Qc.Gate.cx 2 1) 0 2; event (Qc.Gate.cx 0 1) 2 2 ]
  in
  (match Schedule.Verify.check_equivalence ~original r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commuting reorder rejected: %a" Schedule.Verify.pp_error e);
  (* non-commuting reorder rejected: control/target chain *)
  let original =
    Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.cx 0 1; Qc.Gate.cx 1 2 ]
  in
  let r =
    manual_result
      [ event (Qc.Gate.cx 1 2) 0 2; event (Qc.Gate.cx 0 1) 2 2 ]
  in
  match Schedule.Verify.check_equivalence ~original r with
  | Error (Schedule.Verify.Unmatched_logical_gate _) -> ()
  | Ok () -> Alcotest.fail "non-commuting reorder accepted"
  | Error e -> Alcotest.failf "wrong error %a" Schedule.Verify.pp_error e

(* --------------------------------------------------------- verify edges *)

let check_all_routers ~maqam circuit =
  let initial =
    Arch.Layout.identity ~n_logical:(Qc.Circuit.n_qubits circuit)
      ~n_physical:(Arch.Maqam.n_qubits maqam)
  in
  List.map
    (fun (name, run) ->
      let routed = run ~maqam ~initial circuit in
      (match Schedule.Verify.check_all ~maqam ~original:circuit routed with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s fails verification: %a" name
          Schedule.Verify.pp_error e);
      (name, routed))
    [
      ("codar", fun ~maqam ~initial c -> Codar.Remapper.run ~maqam ~initial c);
      ("sabre", fun ~maqam ~initial c -> Sabre.Router.run ~maqam ~initial c);
      ("astar", fun ~maqam ~initial c -> Astar.Router.run ~maqam ~initial c);
    ]

(* Zero-duration events (barriers) must be exempt from overlap checking
   yet still verified — and they must not add to the weighted depth. *)
let test_verify_zero_duration_events () =
  let circuit =
    Qc.Circuit.make ~n_qubits:3
      [
        Qc.Gate.h 0;
        Qc.Gate.barrier [ 0; 1; 2 ];
        Qc.Gate.cx 0 1;
        Qc.Gate.barrier [ 0; 1 ];
        Qc.Gate.barrier [ 0; 1; 2 ];
        Qc.Gate.h 2;
      ]
  in
  List.iter
    (fun (_, routed) ->
      List.iter
        (fun (e : Schedule.Routed.event) ->
          match e.gate with
          | Qc.Gate.Barrier _ ->
            Alcotest.(check int) "barrier has zero duration" 0 e.duration
          | _ -> ())
        routed.Schedule.Routed.events)
    (check_all_routers ~maqam:maqam_linear4 circuit);
  (* back-to-back barriers on the same qubits: legal, not an Overlap *)
  let fences =
    Qc.Circuit.make ~n_qubits:2
      [ Qc.Gate.barrier [ 0; 1 ]; Qc.Gate.barrier [ 0; 1 ] ]
  in
  ignore (check_all_routers ~maqam:maqam_linear4 fences)

(* A single-qubit-only circuit needs no SWAPs anywhere; the weighted
   depth is the longest per-qubit chain under the duration model. *)
let test_verify_single_qubit_only () =
  let circuit =
    Qc.Circuit.make ~n_qubits:4
      [
        Qc.Gate.h 0; Qc.Gate.t 0; Qc.Gate.rx 0.4 0;
        Qc.Gate.x 1; Qc.Gate.z 3;
      ]
  in
  List.iter
    (fun (name, routed) ->
      Alcotest.(check int) (name ^ " inserts no swaps") 0
        (Schedule.Routed.swap_count routed);
      (* three 1-cycle gates on qubit 0 dominate *)
      Alcotest.(check int) (name ^ " weighted depth") 3
        routed.Schedule.Routed.makespan)
    (check_all_routers ~maqam:maqam_linear4 circuit)

(* Every CF gate already adjacent: zero SWAPs, and the serial CX chain's
   weighted depth is exactly 3 x two_qubit = 6 on the superconducting
   model. *)
let test_verify_all_adjacent_chain () =
  let circuit =
    Qc.Circuit.make ~n_qubits:4
      [ Qc.Gate.cx 0 1; Qc.Gate.cx 1 2; Qc.Gate.cx 2 3 ]
  in
  List.iter
    (fun (name, routed) ->
      Alcotest.(check int) (name ^ " inserts no swaps") 0
        (Schedule.Routed.swap_count routed);
      Alcotest.(check int) (name ^ " weighted depth") 6
        routed.Schedule.Routed.makespan)
    (check_all_routers ~maqam:maqam_linear4 circuit)

(* Zero-gate and measure-only circuits: degenerate but legal inputs. *)
let test_verify_degenerate_circuits () =
  List.iter
    (fun (_, routed) ->
      Alcotest.(check int) "no events" 0
        (List.length routed.Schedule.Routed.events);
      Alcotest.(check int) "zero makespan" 0 routed.Schedule.Routed.makespan)
    (check_all_routers ~maqam:maqam_linear4 (Qc.Circuit.empty 3));
  List.iter
    (fun (name, routed) ->
      Alcotest.(check int) (name ^ " no swaps") 0
        (Schedule.Routed.swap_count routed);
      (* one measure per qubit, all parallel: depth = measure duration *)
      Alcotest.(check int) (name ^ " makespan") 5
        routed.Schedule.Routed.makespan)
    (check_all_routers ~maqam:maqam_linear4
       (Qc.Circuit.make ~n_qubits:3
          [ Qc.Gate.measure 0 0; Qc.Gate.measure 1 1; Qc.Gate.measure 2 2 ]))

let test_reschedule () =
  let circuit, r = route_linear4 [ Qc.Gate.cx 0 3; Qc.Gate.h 1 ] in
  (* CODAR's issue order, re-timed by ASAP *)
  let t = Schedule.Timeline.of_routed r in
  let r' =
    Schedule.Asap.timeline ~durations:sc ~n_physical:4 ~initial:t.initial
      ~final:t.final ~n_logical:t.n_logical
      (List.init t.length (fun k ->
           (Schedule.Timeline.gate t k, Schedule.Timeline.is_inserted t k)))
  in
  (* replaying CODAR's issue order with ASAP can only help or match *)
  Alcotest.(check bool) "reschedule no worse" true
    (r'.Schedule.Timeline.makespan <= r.Schedule.Routed.makespan);
  match Schedule.Verify.check ~maqam:maqam_linear4 ~original:circuit r' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rescheduled fails: %a" Schedule.Verify.pp_error e

(* ------------------------------------------------------------------ stats *)

let test_stats () =
  let circuit = Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.cx 0 3; Qc.Gate.h 1 ] in
  let initial = Arch.Layout.identity ~n_logical:4 ~n_physical:4 in
  let r =
    Codar.Remapper.route ~maqam:maqam_linear4 ~initial circuit
      Schedule.Timeline.copy
  in
  let s = Schedule.Stats.of_timeline ~n_physical:4 ~original:circuit r in
  Alcotest.(check int) "makespan agrees" r.makespan s.Schedule.Stats.makespan;
  Alcotest.(check bool) "positive parallelism" true
    (s.Schedule.Stats.parallelism >= 1.);
  Alcotest.(check bool) "swap overhead = swaps / gates" true
    (Float.abs
       (s.Schedule.Stats.swap_overhead
       -. (float_of_int (Schedule.Timeline.swap_count r) /. 2.))
    < 1e-9);
  Array.iter
    (fun u ->
      Alcotest.(check bool) "utilization in [0,1]" true (u >= 0. && u <= 1.))
    s.Schedule.Stats.utilization

let test_stats_csv () =
  let circuit = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ] in
  let events, makespan =
    asap ~n_physical:2
      (Qc.Circuit.gates circuit)
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
  let csv = Schedule.Stats.to_csv r in
  Alcotest.(check (list string)) "csv lines"
    [ "start,finish,gate,qubits"; "0,1,h,0"; "1,3,cx,0 1"; "" ]
    (String.split_on_char '\n' csv)

let test_gantt_renders () =
  let circuit = Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.cx 0 2; Qc.Gate.t 1 ] in
  let initial = Arch.Layout.identity ~n_logical:3 ~n_physical:4 in
  let r = Codar.Remapper.run ~maqam:maqam_linear4 ~initial circuit in
  let rendered =
    Fmt.str "%a" (Schedule.Stats.pp_gantt ?width:None ~n_physical:4) r
  in
  Alcotest.(check int) "one row per qubit + axis" 5
    (List.length (String.split_on_char '\n' rendered))

(* ---------------------------------------------------------------- scratch *)

(* Systhreads of one domain share its set: while one thread holds it
   inside [use], a [use] from another thread of the domain must get a
   set of its own, and the held set is the domain's again once
   released. The holder blocks on a condition, so the second [use]
   surely runs while the set is busy. *)
let test_scratch_busy_set () =
  let scratch =
    Schedule.Scratch.make
      ~create:(fun () -> ref 0)
      ~words:(fun _ -> 0)
      ~clear:(fun _ -> ())
  in
  let m = Mutex.create () and c = Condition.create () in
  let held = ref None and release = ref false in
  let holder =
    Thread.create
      (fun () ->
        Schedule.Scratch.use scratch (fun s ->
            Mutex.lock m;
            held := Some s;
            Condition.broadcast c;
            while not !release do
              Condition.wait c m
            done;
            Mutex.unlock m))
      ()
  in
  Mutex.lock m;
  while Option.is_none !held do
    Condition.wait c m
  done;
  Mutex.unlock m;
  let second = Schedule.Scratch.use scratch Fun.id in
  Mutex.lock m;
  release := true;
  Condition.broadcast c;
  Mutex.unlock m;
  Thread.join holder;
  let first = Option.get !held in
  Alcotest.(check bool) "a busy set is not lent twice" true (first != second);
  Alcotest.(check bool) "the released set is lent again" true
    (Schedule.Scratch.use scratch Fun.id == first)

let () =
  Alcotest.run "schedule"
    [
      ( "asap",
        [
          Alcotest.test_case "serial chain" `Quick test_asap_serial_chain;
          Alcotest.test_case "parallel" `Quick test_asap_parallel;
          Alcotest.test_case "barrier" `Quick test_asap_barrier;
          Alcotest.test_case "durations" `Quick test_asap_durations_used;
        ] );
      ("routed", [ Alcotest.test_case "helpers" `Quick test_routed_helpers ]);
      ( "verify",
        [
          Alcotest.test_case "ok" `Quick test_verify_ok;
          Alcotest.test_case "not adjacent" `Quick test_verify_not_adjacent;
          Alcotest.test_case "overlap" `Quick test_verify_overlap;
          Alcotest.test_case "bad duration" `Quick test_verify_bad_duration;
          Alcotest.test_case "final layout" `Quick test_verify_final_layout;
          Alcotest.test_case "tampering" `Quick test_verify_equivalence_tamper;
          Alcotest.test_case "reorder rules" `Quick test_verify_reorder_rules;
          Alcotest.test_case "zero-duration events" `Quick
            test_verify_zero_duration_events;
          Alcotest.test_case "single-qubit-only circuit" `Quick
            test_verify_single_qubit_only;
          Alcotest.test_case "all-adjacent chain" `Quick
            test_verify_all_adjacent_chain;
          Alcotest.test_case "degenerate circuits" `Quick
            test_verify_degenerate_circuits;
          Alcotest.test_case "reschedule" `Quick test_reschedule;
        ] );
      ( "stats",
        [
          Alcotest.test_case "metrics" `Quick test_stats;
          Alcotest.test_case "csv" `Quick test_stats_csv;
          Alcotest.test_case "gantt" `Quick test_gantt_renders;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "a busy set is not lent twice" `Quick
            test_scratch_busy_set;
        ] );
    ]
