(* Tests for the CODAR core: commutative-front detection, the two-level
   heuristic, and the remapper — including the paper's motivating scenarios
   (Fig. 1 and Fig. 2). *)

let sc = Arch.Durations.superconducting

(* the 4-qubit square of the motivating examples: Q0-Q1, Q0-Q2, Q1-Q3, Q2-Q3 *)
let square =
  Arch.Coupling.make ~name:"square-4" ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let maqam_square = Arch.Maqam.make ~coupling:square ~durations:sc

let maqam_linear n =
  Arch.Maqam.make ~coupling:(Arch.Devices.linear n) ~durations:sc

let maqam_grid33 =
  Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:3 ~cols:3) ~durations:sc

let identity n = Arch.Layout.identity ~n_logical:n ~n_physical:n

let run ?config maqam circuit =
  let initial =
    Arch.Layout.identity
      ~n_logical:(Qc.Circuit.n_qubits circuit)
      ~n_physical:(Arch.Maqam.n_qubits maqam)
  in
  Codar.Remapper.run ?config ~maqam ~initial circuit

(* --------------------------------------------------------------- cf_front *)

let cf ?window ?max_chain gates =
  let gates = Array.of_list gates in
  let issued = Array.make (Array.length gates) false in
  Codar.Cf_front.compute ?window ?max_chain ~commutes:Qc.Commute.commutes
    ~gates ~issued 0

let test_cf_basics () =
  (* shared-target CXs all commute: every gate is CF (the paper's §IV-B
     example) *)
  Alcotest.(check (list int)) "commuting CX pair" [ 0; 1 ]
    (cf [ Qc.Gate.cx 1 3; Qc.Gate.cx 2 3 ]);
  (* a control-target chain blocks *)
  Alcotest.(check (list int)) "blocking CX pair" [ 0 ]
    (cf [ Qc.Gate.cx 0 1; Qc.Gate.cx 1 2 ]);
  (* disjoint gates are all CF *)
  Alcotest.(check (list int)) "disjoint" [ 0; 1; 2 ]
    (cf [ Qc.Gate.h 0; Qc.Gate.h 1; Qc.Gate.h 2 ]);
  (* H blocks its qubit, disjoint gate still CF *)
  Alcotest.(check (list int)) "mixed" [ 0; 2 ]
    (cf [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.x 2 ])

let test_cf_transitive_block () =
  (* the first unissued gate is always CF; later gates must commute with
     every earlier unissued gate sharing a qubit *)
  let gates =
    [ Qc.Gate.h 0;        (* CF *)
      Qc.Gate.t 0;        (* blocked by h (H and T don't commute) *)
      Qc.Gate.cx 0 1 ]    (* blocked: doesn't commute with h on qubit 0 *)
  in
  Alcotest.(check (list int)) "chain" [ 0 ] (cf gates)

let test_cf_issued_skipped () =
  let gates = Array.of_list [ Qc.Gate.h 0; Qc.Gate.t 0 ] in
  let issued = [| true; false |] in
  Alcotest.(check (list int)) "after issue" [ 1 ]
    (Codar.Cf_front.compute ~commutes:Qc.Commute.commutes ~gates ~issued 0)

let test_cf_window () =
  let gates = List.init 10 (fun i -> Qc.Gate.h i) in
  Alcotest.(check (list int)) "window limits scan" [ 0; 1; 2 ]
    (cf ~window:3 gates)

let test_cf_max_chain () =
  (* once a qubit's pending chain exceeds [max_chain] it saturates and
     conservatively blocks later gates, commuting or not *)
  let gates = List.init 7 (fun i -> Qc.Gate.rz (0.1 *. float_of_int i) 0) in
  Alcotest.(check (list int)) "saturation blocks conservatively"
    [ 0; 1; 2; 3; 4; 5 ]
    (cf ~max_chain:5 gates)

let test_cf_dag_mode () =
  (* commutes = always-false degrades to the plain DAG front layer *)
  let gates =
    Array.of_list [ Qc.Gate.cx 1 3; Qc.Gate.cx 2 3; Qc.Gate.h 0 ]
  in
  let issued = Array.make 3 false in
  Alcotest.(check (list int)) "dag front" [ 0; 2 ]
    (Codar.Cf_front.compute ~commutes:(fun _ _ -> false) ~gates ~issued 0)

(* ------------------------------------------- cf_front: counted chains *)

(* The seed CF scan, kept as a qcheck reference: it probed chain saturation
   with [List.length] on every gate (quadratic in [max_chain]). The
   counted-chain rewrite must select exactly the same indices. *)
let reference_compute ?(window = 200) ?(max_chain = 20) ~commutes ~gates
    ~issued head =
  let n = Array.length gates in
  let chains : (int, Qc.Gate.t list) Hashtbl.t = Hashtbl.create 32 in
  let saturated : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let chain q = Option.value ~default:[] (Hashtbl.find_opt chains q) in
  let rec scan i seen acc =
    if i >= n || seen >= window then List.rev acc
    else if issued.(i) then scan (i + 1) seen acc
    else begin
      let g = gates.(i) in
      let qs = Qc.Gate.qubits g in
      let is_cf =
        List.for_all
          (fun q ->
            (not (Hashtbl.mem saturated q))
            && List.for_all (fun h -> commutes h g) (chain q))
          qs
      in
      List.iter
        (fun q ->
          let c = chain q in
          if List.length c >= max_chain then Hashtbl.replace saturated q ()
          else Hashtbl.replace chains q (g :: c))
        qs;
      scan (i + 1) (seen + 1) (if is_cf then i :: acc else acc)
    end
  in
  scan head 0 []

let prop_cf_counted_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"counted-chain CF = seed List.length implementation"
    QCheck.(
      triple (int_bound 10_000) (int_range 2 8)
        (pair (int_range 1 30) (int_range 1 6)))
    (fun (seed, n, (window, max_chain)) ->
      let circuit =
        Workloads.Builders.random_circuit ~n ~gates:60 ~two_qubit_fraction:0.5
          ~seed
      in
      let gates = Qc.Circuit.gate_array circuit in
      (* a scattering of already-issued gates, as mid-route states have *)
      let issued =
        Array.init (Array.length gates) (fun i -> ((i * 7) + seed) mod 5 = 0)
      in
      let head = ref 0 in
      while !head < Array.length gates && issued.(!head) do incr head done;
      reference_compute ~window ~max_chain ~commutes:Qc.Commute.commutes
        ~gates ~issued !head
      = Codar.Cf_front.compute ~window ~max_chain ~commutes:Qc.Commute.commutes
          ~gates ~issued !head)

let test_cf_incremental_cache () =
  let gates = Qc.Circuit.gate_array (Workloads.Builders.qft 5) in
  let issued = Array.make (Array.length gates) false in
  let stats = Codar.Stats.create () in
  let commutes = Qc.Commute.Compiled.(commutes (make gates)) in
  let t = Codar.Cf_front.create ~commutes ~gates ~issued () in
  let f1 = Codar.Cf_front.front ~stats t 0 in
  let f2 = Codar.Cf_front.front ~stats t 0 in
  Alcotest.(check bool) "hit returns the cached list (==)" true (f1 == f2);
  Alcotest.(check int) "one recompute" 1 stats.Codar.Stats.cf_recomputes;
  Alcotest.(check int) "one cache hit" 1 stats.Codar.Stats.cf_cache_hits;
  Alcotest.(check (list int)) "front = pure compute"
    (Codar.Cf_front.compute ~commutes:Qc.Commute.commutes ~gates ~issued 0)
    f1;
  (* issue the whole front, invalidate, and the rescan must agree with the
     pure function on the new issued state *)
  List.iter (fun i -> issued.(i) <- true) f1;
  Codar.Cf_front.invalidate t;
  let head = ref 0 in
  while !head < Array.length gates && issued.(!head) do incr head done;
  let f3 = Codar.Cf_front.front ~stats t !head in
  Alcotest.(check int) "invalidate forces a recompute" 2
    stats.Codar.Stats.cf_recomputes;
  Alcotest.(check (list int)) "rescanned front = pure compute"
    (Codar.Cf_front.compute ~commutes:Qc.Commute.commutes ~gates ~issued !head)
    f3

(* The tracker driven event by event against the reference scan: issue a
   random CF gate (notify_issued), now and then a gate that is not CF
   (the tracker must fall back to a rebuild), now and then an external
   issue followed by invalidate; after every step [front] must equal
   [compute]. Circuits carry barriers (one listing a qubit twice, one
   empty), mid-circuit measures and rz/u1 at 2πk ± 1e-7, the Z-phase
   rule's margin; [window] and [max_chain] include 0 and 1. *)
let prop_cf_tracker_matches_compute =
  QCheck.Test.make ~count:300 ~name:"incremental tracker = Cf_front.compute"
    QCheck.(
      quad (int_bound 1_000_000) (int_range 1 6) (int_range 0 12)
        (int_range 0 4))
    (fun (seed, n, window_ix, max_chain) ->
      (* shrinking may step outside the generators' ranges *)
      let n = max 1 n and window_ix = max 0 (min 12 window_ix) in
      let max_chain = max 0 max_chain in
      let rng = Random.State.make [| 0xcf; seed |] in
      let window = [| 0; 1; 2; 3; 5; 8; 13; 20; 40; 200; 1; 0; 4 |].(window_ix) in
      let base =
        Fuzz.Gen.circuit_rng rng
          (Fuzz.Gen.config ~measures:Fuzz.Gen.Trailing ~n_qubits:n
             ~gates:(Random.State.int rng 60) ())
      in
      let near_2pi_k () =
        (2. *. Float.pi *. float_of_int (Random.State.int rng 3))
        +. if Random.State.bool rng then 1e-7 else -1e-7
      in
      let q () = Random.State.int rng n in
      let gates =
        List.concat_map
          (fun g ->
            match Random.State.int rng 12 with
            | 0 -> [ Qc.Gate.barrier [ q (); q () ]; g ]
            | 1 ->
              let a = q () in
              [ g; Qc.Gate.barrier [ a; a ] ]
            | 2 -> [ Qc.Gate.barrier []; g ]
            | 3 -> [ g; Qc.Gate.measure (q ()) 0 ]
            | 4 -> [ Qc.Gate.rz (near_2pi_k ()) (q ()); g ]
            | 5 -> [ g; Qc.Gate.u1 (near_2pi_k ()) (q ()) ]
            | _ -> [ g ])
          (Qc.Circuit.gates base)
      in
      let gates = Array.of_list gates in
      let n_gates = Array.length gates in
      let issued = Array.make n_gates false in
      let c = Qc.Commute.Compiled.make gates in
      let t =
        Codar.Cf_front.create ~window ~max_chain
          ~commutes:(fun i j -> Qc.Commute.Compiled.commutes c i j)
          ~gates ~issued ()
      in
      let head = ref 0 in
      let advance () =
        while !head < n_gates && issued.(!head) do incr head done
      in
      let check step =
        let expected =
          Codar.Cf_front.compute ~window ~max_chain
            ~commutes:Qc.Commute.commutes ~gates ~issued !head
        in
        let got = Codar.Cf_front.front t !head in
        if got <> expected then
          QCheck.Test.fail_reportf
            "step %d (window %d, max_chain %d): tracker [%s], compute [%s]"
            step window max_chain
            (String.concat "; " (List.map string_of_int got))
            (String.concat "; " (List.map string_of_int expected))
      in
      let unissued () =
        List.filter (fun i -> not issued.(i)) (List.init n_gates Fun.id)
      in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let step = ref 0 in
      check !step;
      while !head < n_gates do
        incr step;
        let front = Codar.Cf_front.front t !head in
        (match Random.State.int rng 10 with
        | 0 ->
          (* a gate outside the front, told to the tracker *)
          let i = pick (unissued ()) in
          issued.(i) <- true;
          Codar.Cf_front.notify_issued t i
        | 1 ->
          (* an external issue, then invalidate *)
          let i = pick (unissued ()) in
          issued.(i) <- true;
          Codar.Cf_front.invalidate t
        | _ -> (
          match front with
          | [] ->
            let i = pick (unissued ()) in
            issued.(i) <- true;
            Codar.Cf_front.notify_issued t i
          | _ ->
            let i = pick front in
            issued.(i) <- true;
            Codar.Cf_front.notify_issued t i));
        advance ();
        check !step
      done;
      true)

(* -------------------------------------------------------------- heuristic *)

let test_hbasic () =
  let layout = identity 9 in
  (* CX q0,q8 on the 3x3 grid: distance 4 *)
  let pr swap =
    Codar.Heuristic.evaluate ~maqam:maqam_grid33 ~layout ~cf_pairs:[ (0, 8) ]
      ~swap
  in
  Alcotest.(check int) "toward: +1" 1 (pr (0, 1)).Codar.Heuristic.basic;
  Alcotest.(check int) "toward: +1 (vertical)" 1 (pr (0, 3)).Codar.Heuristic.basic;
  (* swapping two uninvolved qubits changes nothing *)
  Alcotest.(check int) "neutral" 0 (pr (4, 5)).Codar.Heuristic.basic;
  (* moving q4's host from the centre to the far corner: 2 -> 4 *)
  Alcotest.(check int) "away is negative" (-2)
    (Codar.Heuristic.evaluate ~maqam:maqam_grid33 ~layout
       ~cf_pairs:[ (0, 4) ] ~swap:(4, 8)).Codar.Heuristic.basic

let test_hfine_prefers_balance () =
  let layout = identity 9 in
  (* pair (0,5): phys 0 at (0,0), phys 5 at (2,1): HD=2, VD=1.
     Swap (0,1) moves q0 to (1,0): HD=1, VD=1 -> fine 0.
     Swap (0,3) moves q0 to (0,1): HD=2, VD=0 -> fine -2.
     Both have basic = 1; fine must break the tie toward (0,1). *)
  let pr swap =
    Codar.Heuristic.evaluate ~maqam:maqam_grid33 ~layout ~cf_pairs:[ (0, 5) ]
      ~swap
  in
  let a = pr (0, 1) and b = pr (0, 3) in
  Alcotest.(check int) "equal basic" a.Codar.Heuristic.basic b.Codar.Heuristic.basic;
  Alcotest.(check bool) "fine prefers balanced" true
    (Codar.Heuristic.compare_priority a b > 0);
  (* no coordinates -> fine is 0 *)
  let m = Arch.Maqam.make ~coupling:(Arch.Devices.fully_connected 4) ~durations:sc in
  let p =
    Codar.Heuristic.evaluate ~maqam:m ~layout:(identity 4)
      ~cf_pairs:[ (0, 3) ] ~swap:(0, 1)
  in
  Alcotest.(check (float 1e-9)) "fine 0 without coords" 0. p.Codar.Heuristic.fine

let test_distance_sum () =
  Alcotest.(check int) "sum over pairs" 6
    (Codar.Heuristic.distance_sum ~maqam:maqam_grid33 ~layout:(identity 9)
       [ (0, 8); (0, 4) ])

(* --------------------------------------------------- remapper: paper figs *)

let find_first_swap r =
  List.find_opt
    (fun e -> Qc.Gate.is_swap e.Schedule.Routed.gate)
    (Schedule.Routed.events_by_start r)

let test_fig1_context () =
  (* T q2; CX q0,q3 — the chosen SWAP must avoid busy Q2 and start at 0 *)
  let circuit =
    Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.t 2; Qc.Gate.cx 0 3 ]
  in
  let r = run maqam_square circuit in
  (match find_first_swap r with
  | Some { Schedule.Routed.gate = Qc.Gate.Two (Qc.Gate.Swap, a, b); start; _ }
    ->
    Alcotest.(check bool) "swap avoids Q2" false (a = 2 || b = 2);
    Alcotest.(check int) "swap starts in parallel with T" 0 start
  | Some _ | None -> Alcotest.fail "expected an inserted SWAP");
  Alcotest.(check int) "makespan 8 (parallel), not 9 (serial)" 8 r.makespan

let test_fig2_duration () =
  (* T q1; CX q0,q2; CX q0,q3 — the SWAP must be (Q1,Q3) at cycle 1: Q1
     frees after the 1-cycle T while Q0/Q2 are busy until cycle 2 *)
  let circuit =
    Qc.Circuit.make ~n_qubits:4
      [ Qc.Gate.t 1; Qc.Gate.cx 0 2; Qc.Gate.cx 0 3 ]
  in
  let r = run maqam_square circuit in
  (match find_first_swap r with
  | Some { Schedule.Routed.gate = Qc.Gate.Two (Qc.Gate.Swap, a, b); start; _ }
    ->
    Alcotest.(check (pair int int)) "swap pair (1,3)" (1, 3)
      (min a b, max a b);
    Alcotest.(check int) "starts at cycle 1" 1 start
  | Some _ | None -> Alcotest.fail "expected an inserted SWAP");
  Alcotest.(check int) "makespan" 9 r.makespan

(* --------------------------------------------------- remapper: invariants *)

let test_no_swaps_when_adjacent () =
  let circuit =
    Qc.Circuit.make ~n_qubits:4
      [ Qc.Gate.cx 0 1; Qc.Gate.cx 1 2; Qc.Gate.cx 2 3; Qc.Gate.h 0 ]
  in
  let r = run (maqam_linear 4) circuit in
  Alcotest.(check int) "no swaps" 0 (Schedule.Routed.swap_count r);
  Alcotest.(check int) "all gates present" 4 (Schedule.Routed.gate_count r)

let test_one_qubit_only () =
  let circuit =
    Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.h 0; Qc.Gate.t 0; Qc.Gate.x 1 ]
  in
  let r = run (maqam_linear 3) circuit in
  Alcotest.(check int) "makespan = weighted depth" 2 r.makespan

let test_makespan_is_max_finish () =
  let circuit = Workloads.Builders.qft 5 in
  let r = run (maqam_linear 5) circuit in
  let max_finish =
    List.fold_left
      (fun acc e -> max acc (Schedule.Routed.finish e))
      0 r.events
  in
  Alcotest.(check int) "makespan" max_finish r.makespan

let test_starts_nondecreasing () =
  (* CODAR issues in simulated-time order *)
  let circuit = Workloads.Builders.qft 6 in
  let r = run maqam_grid33 circuit in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "monotone issue times" true
        (a.Schedule.Routed.start <= b.Schedule.Routed.start);
      check rest
    | [ _ ] | [] -> ()
  in
  check r.events

let test_verified_on_qft () =
  let circuit = Workloads.Builders.qft 6 in
  let r = run maqam_grid33 circuit in
  (match
     Schedule.Verify.check_all ~maqam:maqam_grid33 ~original:circuit r
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e);
  Alcotest.(check bool) "statevector equivalent" true
    (Sim.Equiv.routed_equivalent ~maqam:maqam_grid33 ~original:circuit r)

let test_commutativity_helps () =
  (* cx 0 2 needs routing; cx 1 2 commutes with it (shared target) and can
     run immediately — but only the commutative front sees it. *)
  let circuit =
    Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.cx 0 2; Qc.Gate.cx 1 2 ]
  in
  let with_comm = run (maqam_linear 3) circuit in
  let without =
    run
      ~config:{ Codar.Remapper.default_config with use_commutativity = false }
      (maqam_linear 3) circuit
  in
  let first_event r = (List.hd r.Schedule.Routed.events).Schedule.Routed.gate in
  Alcotest.(check bool) "cx(1,2) issued first with commutativity" true
    (Qc.Gate.equal (first_event with_comm) (Qc.Gate.cx 1 2));
  Alcotest.(check bool) "commutativity no worse" true
    (with_comm.makespan <= without.makespan);
  (* both remain correct *)
  List.iter
    (fun r ->
      match
        Schedule.Verify.check_all ~maqam:(maqam_linear 3) ~original:circuit r
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e)
    [ with_comm; without ]

let test_program_swaps_routed () =
  (* a program's own SWAP gates are logical gates, not layout moves —
     regression for the qft4.qasm verifier bug *)
  let circuit =
    Qc.Circuit.make ~n_qubits:4
      [ Qc.Gate.cx 0 1; Qc.Gate.swap 0 3; Qc.Gate.swap 1 2; Qc.Gate.cx 2 3 ]
  in
  let r = run (maqam_linear 4) circuit in
  (match Schedule.Verify.check_all ~maqam:(maqam_linear 4) ~original:circuit r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e);
  Alcotest.(check bool) "statevector equivalent" true
    (Sim.Equiv.routed_equivalent ~maqam:(maqam_linear 4) ~original:circuit r);
  (* swap_count must only count router-inserted SWAPs *)
  let adjacent_swaps =
    Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.swap 0 1; Qc.Gate.swap 1 2 ]
  in
  let r2 = run (maqam_linear 3) adjacent_swaps in
  Alcotest.(check int) "program swaps not counted" 0
    (Schedule.Routed.swap_count r2)

let test_measure_and_barrier_routed () =
  let circuit =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.h 0; Qc.Gate.barrier [ 0; 1 ]; Qc.Gate.cx 0 2;
        Qc.Gate.measure 0 0; Qc.Gate.measure 2 1 ]
  in
  let r = run (maqam_linear 3) circuit in
  match Schedule.Verify.check_all ~maqam:(maqam_linear 3) ~original:circuit r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e

let test_wide_circuit_rejected () =
  let circuit = Qc.Circuit.make ~n_qubits:5 [ Qc.Gate.h 4 ] in
  Alcotest.(check bool) "width check" true
    (try
       ignore (run (maqam_linear 3) circuit);
       false
     with Invalid_argument _ -> true)

(* A two-qubit gate straddling the components of a disconnected-but-valid
   device must fail with the typed {!Codar.Remapper.Stuck} the moment the
   pair is resolved — before any SWAP is inserted. The seed instead let the
   distance-table sentinel (then [max_int]) flow into [Heuristic.basic]'s
   subtraction, where it wrapped and made cross-component SWAPs look
   profitable; the router burned its whole SWAP budget before giving up. *)
let test_disconnected_stuck () =
  let coupling =
    Arch.Coupling.make ~name:"islands" ~n:4 [ (0, 1); (2, 3) ]
  in
  let maqam = Arch.Maqam.make ~coupling ~durations:sc in
  let circuit = Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.cx 0 3 ] in
  let stats = Codar.Stats.create () in
  Alcotest.(check bool) "raises Stuck" true
    (try
       ignore
         (Codar.Remapper.run ~stats ~maqam ~initial:(identity 4) circuit);
       false
     with Codar.Remapper.Stuck _ -> true);
  Alcotest.(check int) "fails before wasting any SWAP (seed burned 200)" 0
    stats.Codar.Stats.swaps_inserted

let test_spare_physical_qubits () =
  (* 3 logical qubits on a 9-qubit grid: SWAPs may involve unoccupied
     physical qubits *)
  let circuit =
    Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.cx 0 1; Qc.Gate.cx 0 2; Qc.Gate.cx 1 2 ]
  in
  let initial = Arch.Layout.of_array ~n_physical:9 [| 0; 4; 8 |] in
  let r = Codar.Remapper.run ~maqam:maqam_grid33 ~initial circuit in
  match Schedule.Verify.check_all ~maqam:maqam_grid33 ~original:circuit r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e

let test_window_insensitivity () =
  (* DESIGN.md claims results are stable beyond small windows; sanity-check
     two windows both give verified results in similar range *)
  let circuit = Workloads.Builders.qft 6 in
  let small =
    run ~config:{ Codar.Remapper.default_config with window = 20 }
      maqam_grid33 circuit
  in
  let large =
    run ~config:{ Codar.Remapper.default_config with window = 500 }
      maqam_grid33 circuit
  in
  Alcotest.(check bool) "both verified" true
    (Result.is_ok
       (Schedule.Verify.check_all ~maqam:maqam_grid33 ~original:circuit small)
    && Result.is_ok
         (Schedule.Verify.check_all ~maqam:maqam_grid33 ~original:circuit
            large))

(* ------------------------------------------ remapper: candidate repair *)

(* Two independent distance-2 corner pairs on the 3x3 grid force two SWAPs
   in the same decision cycle, so the second SWAP is chosen after the first
   one has already moved an endpoint — exactly the situation where a stale
   candidate list, a regenerated one, and the PR-6 incremental repair
   diverge in the work they do (the routed output is identical for all
   three; this test pins the accounting).

   The cycle activates the 8 lock-free edges incident to the two pending
   pairs (8 swap_candidates, 8 incremental scorings). Both pairs sit at
   distance 2, so four edges score Hbasic = +1 — (0,1), (1,2), (6,7),
   (7,8) — and only those ties pay a full [Heuristic.evaluate_phys] for
   the Hfine tiebreak: 4 evals, winner SWAP(0,1). Committing it makes the
   (q0,q2) pair adjacent: the edges around the locked qubits 0 and 1 die,
   (2,5) is rescored as the far-endpoint survivor (1 scoring) and then
   deactivated — its pair no longer justifies any candidate. The 4
   corner-(q6,q8) edges keep their scores untouched; the +1 ties (6,7) and
   (7,8) cost 2 more evals, winner SWAP(6,7). Its commit rescores (5,8)
   (1 scoring) before deactivating it, and the queue drains.

   Totals: 8 distinct candidates, 8 + 1 + 1 = 10 incremental rescores,
   4 + 2 = 6 full evaluations. The seed's regenerate-everything loop did
   8 + 4 = 12 full evaluations and counted 12 candidates (re-counting the
   corner's 4 survivors); a stale list would have done 15. The exact
   counters below therefore fail against both old accountings. *)
let test_swap_candidates_regenerated () =
  let circuit =
    Qc.Circuit.make ~n_qubits:9 [ Qc.Gate.cx 0 2; Qc.Gate.cx 6 8 ]
  in
  let stats = Codar.Stats.create () in
  let r =
    Codar.Remapper.run ~stats ~maqam:maqam_grid33 ~initial:(identity 9) circuit
  in
  let swaps =
    List.filter_map
      (fun e ->
        match e.Schedule.Routed.gate with
        | Qc.Gate.Two (Qc.Gate.Swap, a, b) when e.Schedule.Routed.inserted ->
          Some (min a b, max a b, e.Schedule.Routed.start)
        | _ -> None)
      r.events
  in
  Alcotest.(check (list (triple int int int)))
    "both SWAPs in cycle 0, one per corner"
    [ (0, 1, 0); (6, 7, 0) ]
    swaps;
  Alcotest.(check int) "makespan" 8 r.makespan;
  Alcotest.(check int) "swaps inserted" 2 stats.Codar.Stats.swaps_inserted;
  Alcotest.(check int) "distinct candidates activated" 8
    stats.Codar.Stats.swap_candidates;
  Alcotest.(check int) "incremental rescores (8 activations + 2 repairs)" 10
    stats.Codar.Stats.swap_rescores;
  Alcotest.(check int) "full evals, ties only (seed did 12, stale list 15)" 6
    stats.Codar.Stats.heuristic_evals;
  match Schedule.Verify.check_all ~maqam:maqam_grid33 ~original:circuit r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e

(* ------------------------------------------------------ incremental scorer *)

(* From-scratch model of the scorer's contract: the active candidate set is
   every coupling edge whose endpoints are both lock-free and at least one
   of which is an endpoint of a non-adjacent CF pair; each maintained
   [Hbasic] must equal a fresh [Heuristic.evaluate_phys] over the current
   pairs. Returned sorted by edge, like [Swap_scorer.candidates]. *)
let scratch_candidates ~maqam ~locks ~time pairs =
  let coupling = Arch.Maqam.coupling maqam in
  let n = Arch.Coupling.n_qubits coupling in
  let touched = Array.make n false in
  List.iter
    (fun (a, b) ->
      if not (Arch.Coupling.adjacent coupling a b) then begin
        touched.(a) <- true;
        touched.(b) <- true
      end)
    pairs;
  let out = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      if
        Arch.Coupling.adjacent coupling u v
        && (touched.(u) || touched.(v))
        && locks.(u) <= time
        && locks.(v) <= time
      then
        let p =
          Codar.Heuristic.evaluate_phys ~maqam ~phys_pairs:pairs ~swap:(u, v)
        in
        out := ((u, v), p.Codar.Heuristic.basic) :: !out
    done
  done;
  !out

(* Connected random device: a random spanning tree plus up to n/2 chords
   (duplicates dropped — [Coupling.make] rejects them). *)
let random_device rng ~n =
  let seen = Hashtbl.create 16 in
  let edges = ref [] in
  let add u v =
    let e = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem seen e) then begin
      Hashtbl.replace seen e ();
      edges := e :: !edges
    end
  in
  for v = 1 to n - 1 do
    add (Random.State.int rng v) v
  done;
  for _ = 1 to n / 2 do
    add (Random.State.int rng n) (Random.State.int rng n)
  done;
  Arch.Coupling.make ~name:"qcheck-random" ~n !edges

(* The scorer's array API seen as the pair list and option it replaced,
   so the properties below state their assertions on physical edges. *)
let begin_cycle scorer ~time ~phys_pairs =
  let pairs = Array.make (2 * List.length phys_pairs) 0 in
  List.iteri
    (fun k (a, b) ->
      pairs.(2 * k) <- a;
      pairs.((2 * k) + 1) <- b)
    phys_pairs;
  Codar.Swap_scorer.begin_cycle scorer ~time ~pairs
    ~n_pairs:(List.length phys_pairs)

let scorer_best scorer =
  match Codar.Swap_scorer.best scorer with
  | -1 -> None
  | e ->
    Some
      ( (Codar.Swap_scorer.edge_u scorer e, Codar.Swap_scorer.edge_v scorer e),
        Codar.Swap_scorer.basic scorer e )

(* CF fronts may repeat qubits across pairs (gates sharing a qubit can all
   commute), so pairs here are independent draws with distinct endpoints. *)
let random_pairs rng ~n =
  List.init
    (1 + Random.State.int rng 6)
    (fun _ ->
      let a = Random.State.int rng n in
      ((a, (a + 1 + Random.State.int rng (n - 1)) mod n) : int * int))

let prop_scorer_matches_scratch =
  QCheck.Test.make ~count:200
    ~name:"incremental SWAP priorities = from-scratch Heuristic.evaluate"
    QCheck.(pair (int_bound 1_000_000) (int_range 0 3))
    (fun (seed, dev) ->
      let rng = Random.State.make [| 0x5eed; seed; dev |] in
      let coupling =
        match dev with
        | 0 -> Arch.Devices.ibm_q20_tokyo
        | 1 -> Arch.Devices.sycamore_54
        | 2 -> Arch.Devices.fully_connected 8 (* ion trap: all-to-all *)
        | _ -> random_device rng ~n:(6 + Random.State.int rng 10)
      in
      let maqam = Arch.Maqam.make ~coupling ~durations:sc in
      let n = Arch.Coupling.n_qubits coupling in
      let stats = Codar.Stats.create () in
      let locks = Array.make n 0 in
      let scorer =
        Codar.Swap_scorer.create ~maqam ~stats ~use_fine:true ~locks ()
      in
      let time = ref 0 in
      let pairs = ref [] in
      let check what =
        let expected = scratch_candidates ~maqam ~locks ~time:!time !pairs in
        let got = Codar.Swap_scorer.candidates scorer in
        if got <> expected then
          QCheck.Test.fail_reportf
            "%s: scorer has %d candidates, scratch says %d (n=%d, %d pairs)"
            what (List.length got) (List.length expected) n
            (List.length !pairs);
        (* the selected SWAP must be the reference argmax when positive:
           max Hbasic, then max Hfine, then the smallest edge (candidates
           are edge-sorted, so first-wins folding breaks ties correctly) *)
        match
          List.fold_left
            (fun acc (e, _) ->
              let p =
                Codar.Heuristic.evaluate_phys ~maqam ~phys_pairs:!pairs
                  ~swap:e
              in
              match acc with
              | Some (_, bp) when Codar.Heuristic.compare_priority p bp <= 0
                ->
                acc
              | Some _ | None -> Some (e, p))
            None expected
        with
        | Some (e, p) when p.Codar.Heuristic.basic > 0 -> (
          match scorer_best scorer with
          | Some (e', b') when e' = e && b' = p.Codar.Heuristic.basic -> ()
          | Some ((u, v), b') ->
            QCheck.Test.fail_reportf
              "%s: best picked (%d,%d) basic %d, reference says (%d,%d) \
               basic %d"
              what u v b' (fst e) (snd e) p.Codar.Heuristic.basic
          | None ->
            QCheck.Test.fail_reportf "%s: best = None with a positive argmax"
              what)
        | Some _ | None -> ()
      in
      for _cycle = 1 to 3 do
        time := !time + 1 + Random.State.int rng 5;
        (* new front: some gates issued since last cycle, pairs re-resolved *)
        pairs := random_pairs rng ~n;
        (* a scattering of qubits still busy with earlier gates *)
        Array.iteri
          (fun i l ->
            locks.(i) <-
              (if Random.State.int rng 5 = 0 then
                 !time + 1 + Random.State.int rng 3
               else min l !time))
          locks;
        begin_cycle scorer ~time:!time ~phys_pairs:!pairs;
        check "after begin_cycle";
        for _step = 1 to Random.State.int rng 4 do
          match Codar.Swap_scorer.candidates scorer with
          | [] -> ()
          | cs ->
            let (x, y), _ =
              List.nth cs (Random.State.int rng (List.length cs))
            in
            (* issue_swap's footprint: locks advance, the layout moves *)
            let d = Arch.Durations.swap (Arch.Maqam.durations maqam) in
            locks.(x) <- !time + d;
            locks.(y) <- !time + d;
            let mv p = if p = x then y else if p = y then x else p in
            pairs := List.map (fun (a, b) -> (mv a, mv b)) !pairs;
            Codar.Swap_scorer.commit scorer x y;
            check "after commit"
        done
      done;
      true)

(* ------------------------------------------------------------- objectives *)

(* From-scratch image of the ctx the scorer hands its objective, built
   directly from the pair list — for checking maintained objective scores
   against a fresh [scale * Hbasic + bonus]. *)
let scratch_octx ~maqam ~pairs =
  let coupling = Arch.Maqam.coupling maqam in
  let n = Arch.Coupling.n_qubits coupling in
  let arr = Array.of_list pairs in
  let incident p =
    let out = ref [] in
    Array.iteri (fun k (a, b) -> if a = p || b = p then out := k :: !out) arr;
    !out
  in
  {
    Objective.n;
    dist_row = Arch.Coupling.distance_row coupling;
    incident;
    pair_fst = (fun k -> fst arr.(k));
    pair_snd = (fun k -> snd arr.(k));
    calibration = Arch.Calibration.for_durations (Arch.Maqam.durations maqam);
    swap_cycles = Arch.Durations.swap (Arch.Maqam.durations maqam);
  }

(* A deliberately repair-rule-hostile objective: its bonus counts incident
   pairs on both endpoints, so it opts into [full_rescore] and exercises
   the engine's re-score-everything path. *)
module Crowding : Objective.S = struct
  let name = "crowding"
  let scale = 8
  let bonus_bound = 7

  let bonus ctx ~u ~v =
    min bonus_bound
      ((2 * List.length (ctx.Objective.incident u))
      + List.length (ctx.Objective.incident v))

  let issue_min _ = 0
  let use_fine = false
  let full_rescore = true
end

let crowding : Objective.t = (module Crowding)

let prop_scorer_objective_scores =
  QCheck.Test.make ~count:150
    ~name:"objective scores = scale*Hbasic + bonus, incrementally maintained"
    QCheck.(
      triple (int_bound 1_000_000) (int_range 0 3) (int_range 0 3))
    (fun (seed, dev, obj_ix) ->
      let objective =
        List.nth
          [ Objective.slack; Objective.depth; Objective.t2; crowding ]
          obj_ix
      in
      let module O = (val objective) in
      let rng = Random.State.make [| 0x0b1ec7; seed; dev |] in
      let coupling =
        match dev with
        | 0 -> Arch.Devices.ibm_q20_tokyo
        | 1 -> Arch.Devices.sycamore_54
        | 2 -> Arch.Devices.fully_connected 8
        | _ -> random_device rng ~n:(6 + Random.State.int rng 10)
      in
      let maqam = Arch.Maqam.make ~coupling ~durations:sc in
      let n = Arch.Coupling.n_qubits coupling in
      let stats = Codar.Stats.create () in
      let locks = Array.make n 0 in
      let scorer =
        Codar.Swap_scorer.create ~objective ~maqam ~stats ~use_fine:true
          ~locks ()
      in
      let issue_min = Codar.Swap_scorer.issue_min scorer in
      let time = ref 0 in
      let pairs = ref [] in
      let check what =
        let octx = scratch_octx ~maqam ~pairs:!pairs in
        let expected =
          List.map
            (fun (e, basic) ->
              let score =
                if O.bonus_bound = 0 then basic
                else
                  (O.scale * basic)
                  + O.bonus octx ~u:(fst e) ~v:(snd e)
              in
              (e, basic, score))
            (scratch_candidates ~maqam ~locks ~time:!time !pairs)
        in
        let got = Codar.Swap_scorer.candidates scorer in
        let expected_scored = List.map (fun (e, _, s) -> (e, s)) expected in
        if got <> expected_scored then
          QCheck.Test.fail_reportf
            "%s[%s]: scorer has %d candidates, scratch says %d (n=%d)" what
            O.name (List.length got)
            (List.length expected_scored)
            n;
        (* best = lexicographic argmax of the objective score; residual
           ties fall to Hfine only for use_fine objectives above the issue
           threshold, and to the smallest edge otherwise *)
        match expected with
        | [] -> ()
        | _ ->
          let max_score =
            List.fold_left (fun m (_, _, s) -> max m s) min_int expected
          in
          let tied =
            List.filter (fun (_, _, s) -> s = max_score) expected
          in
          let _, tied_basic, _ = List.hd tied in
          let reference =
            if O.use_fine && tied_basic > issue_min then
              (* break_ties' fold: max Hfine, then smallest edge (tied is
                 edge-sorted, so first-strict-max wins ties) *)
              List.fold_left
                (fun acc (e, _, _) ->
                  let p =
                    Codar.Heuristic.evaluate_phys ~maqam ~phys_pairs:!pairs
                      ~swap:e
                  in
                  match acc with
                  | Some (_, bp)
                    when Codar.Heuristic.compare_priority p bp <= 0 ->
                    acc
                  | Some _ | None -> Some (e, p))
                None tied
              |> Option.get |> fst
            else
              let e, _, _ = List.hd tied in
              e
          in
          (match scorer_best scorer with
          | Some (e', b') ->
            if e' <> reference || b' <> tied_basic then
              QCheck.Test.fail_reportf
                "%s[%s]: best picked (%d,%d) basic %d, reference says \
                 (%d,%d) basic %d"
                what O.name (fst e') (snd e') b' (fst reference)
                (snd reference) tied_basic
          | None ->
            QCheck.Test.fail_reportf "%s[%s]: best = None with candidates"
              what O.name)
      in
      for _cycle = 1 to 3 do
        time := !time + 1 + Random.State.int rng 5;
        pairs := random_pairs rng ~n;
        Array.iteri
          (fun i l ->
            locks.(i) <-
              (if Random.State.int rng 5 = 0 then
                 !time + 1 + Random.State.int rng 3
               else min l !time))
          locks;
        begin_cycle scorer ~time:!time ~phys_pairs:!pairs;
        check "after begin_cycle";
        for _step = 1 to Random.State.int rng 4 do
          match Codar.Swap_scorer.candidates scorer with
          | [] -> ()
          | cs ->
            let (x, y), _ =
              List.nth cs (Random.State.int rng (List.length cs))
            in
            let d = Arch.Durations.swap (Arch.Maqam.durations maqam) in
            locks.(x) <- !time + d;
            locks.(y) <- !time + d;
            let mv p = if p = x then y else if p = y then x else p in
            pairs := List.map (fun (a, b) -> (mv a, mv b)) !pairs;
            Codar.Swap_scorer.commit scorer x y;
            check "after commit"
        done
      done;
      true)

let test_t2_issue_policy () =
  (* the t2 threshold formula must separate the shipped profiles:
     superconducting (short T2, cheap SWAPs) stays aggressive; ion-trap
     and neutral-atom (long coherence, costly SWAPs) turn frugal; uniform
     has no calibration and degrades to the makespan rule *)
  List.iter
    (fun (durations, expected) ->
      let maqam =
        Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations
      in
      let scorer =
        Codar.Swap_scorer.create ~objective:Objective.t2 ~maqam
          ~stats:(Codar.Stats.create ()) ~use_fine:true
          ~locks:(Array.make 20 0) ()
      in
      Alcotest.(check int)
        (Fmt.str "t2 issue_min on %s" (Arch.Durations.name durations))
        expected
        (Codar.Swap_scorer.issue_min scorer))
    [
      (Arch.Durations.superconducting, 0);
      (Arch.Durations.ion_trap, 1);
      (Arch.Durations.neutral_atom, 1);
      (Arch.Durations.uniform, 0);
    ]

let test_t2_uniform_is_makespan () =
  (* with no calibration the t2 objective must be makespan exactly —
     byte-identical event streams, Hfine tie-breaks included *)
  let maqam =
    Arch.Maqam.make
      ~coupling:(Arch.Devices.grid ~rows:3 ~cols:3)
      ~durations:Arch.Durations.uniform
  in
  let circuit = Workloads.Builders.qft 6 in
  let initial = Arch.Layout.identity ~n_logical:6 ~n_physical:9 in
  let route objective =
    Codar.Remapper.run
      ~config:{ Codar.Remapper.default_config with objective }
      ~maqam ~initial circuit
  in
  let a = route Objective.makespan and b = route Objective.t2 in
  Alcotest.(check int) "same makespan" a.Schedule.Routed.makespan
    b.Schedule.Routed.makespan;
  Alcotest.(check bool) "identical event streams" true
    (List.length a.Schedule.Routed.events
     = List.length b.Schedule.Routed.events
    && List.for_all2
         (fun (x : Schedule.Routed.event) (y : Schedule.Routed.event) ->
           Qc.Gate.equal x.gate y.gate
           && x.start = y.start && x.duration = y.duration
           && x.inserted = y.inserted)
         a.Schedule.Routed.events b.Schedule.Routed.events)

let test_objective_validation () =
  (* the engine rejects objectives that break the lexicographic law *)
  let module Bad : Objective.S = struct
    let name = "bad"
    let scale = 2
    let bonus_bound = 2 (* >= scale: bonus could outrank Hbasic *)
    let bonus _ ~u:_ ~v:_ = 0
    let issue_min _ = 0
    let use_fine = false
    let full_rescore = false
  end in
  let maqam = maqam_grid33 in
  match
    Codar.Swap_scorer.create ~objective:(module Bad) ~maqam
      ~stats:(Codar.Stats.create ()) ~use_fine:true ~locks:(Array.make 9 0)
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bonus_bound >= scale must be rejected"

(* -------------------------------------------------------------- portfolio *)

let test_portfolio_restart0_baseline () =
  (* restart 0 must be the caller's layout routed under the first
     objective — the portfolio can never lose to the single-shot baseline
     under its own selection metric *)
  let maqam =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc
  in
  let circuit = Workloads.Builders.qft 8 in
  let initial = Arch.Layout.identity ~n_logical:8 ~n_physical:20 in
  let baseline = Codar.Remapper.run ~maqam ~initial circuit in
  let o = Codar.Portfolio.run ~restarts:4 ~seed:3 ~maqam ~initial circuit in
  Alcotest.(check int) "restart 0 is the baseline route"
    baseline.Schedule.Routed.makespan
    o.Codar.Portfolio.scores.(0);
  Alcotest.(check bool) "winner never worse than restart 0" true
    (o.Codar.Portfolio.routed.Schedule.Routed.makespan
    <= o.Codar.Portfolio.scores.(0))

let test_portfolio_mixed_membership () =
  let maqam =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc
  in
  let circuit = Workloads.Builders.qft 6 in
  let initial = Arch.Layout.identity ~n_logical:6 ~n_physical:20 in
  let o =
    Codar.Portfolio.run ~restarts:5 ~seed:1
      ~objectives:[ Objective.makespan; Objective.slack ]
      ~metric:Codar.Portfolio.Depth ~maqam ~initial circuit
  in
  Alcotest.(check (list string)) "objectives cycle over restarts"
    [ "makespan"; "slack"; "makespan"; "slack"; "makespan" ]
    (Array.to_list (Array.map Objective.name o.Codar.Portfolio.objectives));
  Alcotest.(check string) "depth metric recorded" "depth"
    (Codar.Portfolio.metric_name o.Codar.Portfolio.metric);
  (* under the depth metric the winner minimises metric_scores *)
  Array.iter
    (fun s ->
      Alcotest.(check bool) "winner minimal under metric" true
        (o.Codar.Portfolio.metric_scores.(o.Codar.Portfolio.winner) <= s))
    o.Codar.Portfolio.metric_scores

let test_portfolio_esp_needs_calibration () =
  let maqam =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
      ~durations:Arch.Durations.uniform
  in
  let circuit = Workloads.Builders.qft 4 in
  let initial = Arch.Layout.identity ~n_logical:4 ~n_physical:20 in
  match
    Codar.Portfolio.run ~restarts:2 ~metric:Codar.Portfolio.Esp ~maqam
      ~initial circuit
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "esp metric without calibration must be rejected"

(* --------------------------------------------------------- instrumentation *)

let test_stats_counters () =
  let circuit = Workloads.Builders.qft 6 in
  let stats = Codar.Stats.create () in
  let initial = Arch.Layout.identity ~n_logical:6 ~n_physical:9 in
  let r = Codar.Remapper.run ~stats ~maqam:maqam_grid33 ~initial circuit in
  Alcotest.(check int) "every gate issued exactly once"
    (Qc.Circuit.length circuit)
    stats.Codar.Stats.gates_issued;
  Alcotest.(check int) "swap counters agree"
    (Schedule.Routed.swap_count r)
    stats.Codar.Stats.swaps_inserted;
  Alcotest.(check bool) "front is recomputed" true
    (stats.Codar.Stats.cf_recomputes > 0);
  Alcotest.(check bool) "front cache hits" true
    (stats.Codar.Stats.cf_cache_hits > 0);
  Alcotest.(check bool) "time advances" true (stats.Codar.Stats.cycles > 0);
  let rate = Codar.Stats.cf_hit_rate stats in
  Alcotest.(check bool) "hit rate in (0,1)" true (rate > 0. && rate < 1.);
  (* a run with stats must be bit-identical to one without *)
  let r' = Codar.Remapper.run ~maqam:maqam_grid33 ~initial circuit in
  Alcotest.(check bool) "stats do not perturb routing" true
    (List.for_all2
       (fun (a : Schedule.Routed.event) (b : Schedule.Routed.event) ->
         Qc.Gate.equal a.gate b.gate
         && a.start = b.start && a.duration = b.duration
         && a.inserted = b.inserted)
       r.events r'.events);
  Codar.Stats.reset stats;
  Alcotest.(check int) "reset clears counters" 0
    stats.Codar.Stats.gates_issued

let () =
  Alcotest.run "codar"
    [
      ( "cf_front",
        [
          Alcotest.test_case "basics" `Quick test_cf_basics;
          Alcotest.test_case "transitive block" `Quick test_cf_transitive_block;
          Alcotest.test_case "issued skipped" `Quick test_cf_issued_skipped;
          Alcotest.test_case "window" `Quick test_cf_window;
          Alcotest.test_case "max chain" `Quick test_cf_max_chain;
          Alcotest.test_case "dag mode" `Quick test_cf_dag_mode;
          QCheck_alcotest.to_alcotest prop_cf_counted_matches_reference;
          QCheck_alcotest.to_alcotest prop_cf_tracker_matches_compute;
          Alcotest.test_case "incremental cache" `Quick
            test_cf_incremental_cache;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "Hbasic" `Quick test_hbasic;
          Alcotest.test_case "Hfine balance" `Quick test_hfine_prefers_balance;
          Alcotest.test_case "distance sum" `Quick test_distance_sum;
        ] );
      ( "paper scenarios",
        [
          Alcotest.test_case "Fig.1 context" `Quick test_fig1_context;
          Alcotest.test_case "Fig.2 duration" `Quick test_fig2_duration;
        ] );
      ( "remapper",
        [
          Alcotest.test_case "no swaps when adjacent" `Quick
            test_no_swaps_when_adjacent;
          Alcotest.test_case "1q only" `Quick test_one_qubit_only;
          Alcotest.test_case "makespan" `Quick test_makespan_is_max_finish;
          Alcotest.test_case "monotone starts" `Quick test_starts_nondecreasing;
          Alcotest.test_case "verified qft" `Quick test_verified_on_qft;
          Alcotest.test_case "commutativity helps" `Quick
            test_commutativity_helps;
          Alcotest.test_case "program swaps" `Quick test_program_swaps_routed;
          Alcotest.test_case "measure+barrier" `Quick
            test_measure_and_barrier_routed;
          Alcotest.test_case "wide rejected" `Quick test_wide_circuit_rejected;
          Alcotest.test_case "disconnected stuck" `Quick
            test_disconnected_stuck;
          Alcotest.test_case "spare physical qubits" `Quick
            test_spare_physical_qubits;
          Alcotest.test_case "window insensitivity" `Quick
            test_window_insensitivity;
          Alcotest.test_case "SWAP candidates repaired" `Quick
            test_swap_candidates_regenerated;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "swap_scorer",
        [
          QCheck_alcotest.to_alcotest prop_scorer_matches_scratch;
          QCheck_alcotest.to_alcotest prop_scorer_objective_scores;
        ] );
      ( "objective",
        [
          Alcotest.test_case "t2 issue policy" `Quick test_t2_issue_policy;
          Alcotest.test_case "t2 on uniform = makespan" `Quick
            test_t2_uniform_is_makespan;
          Alcotest.test_case "bad objective rejected" `Quick
            test_objective_validation;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "restart 0 is baseline" `Quick
            test_portfolio_restart0_baseline;
          Alcotest.test_case "mixed membership" `Quick
            test_portfolio_mixed_membership;
          Alcotest.test_case "esp needs calibration" `Quick
            test_portfolio_esp_needs_calibration;
        ] );
    ]
