(* Tests for the initial-placement strategies. *)

let sc = Arch.Durations.superconducting

let maqam_tokyo =
  Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc

let qft8 = Workloads.Builders.qft 8

let test_names () =
  List.iter
    (fun s ->
      match Placement.of_name (Placement.name s) with
      | Some s' ->
        Alcotest.(check string) "round trip" (Placement.name s)
          (Placement.name s')
      | None -> Alcotest.failf "name %s does not parse" (Placement.name s))
    Placement.all;
  Alcotest.(check bool) "unknown" true (Placement.of_name "nope" = None);
  Alcotest.(check bool) "bad sabre arity" true
    (Placement.of_name "sabre-0" = None);
  (* counts are ASCII digits: none of OCaml's other integer spellings *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " refused") true (Placement.of_name s = None))
    [
      "sabre-0x3"; "random-0b11"; "sabre-1_0"; "sabre-+2"; "random-+2";
      "random-0o7"; "random--"; "random---5"; "sabre--1";
    ];
  (* sabre-<k> is bounded by max_passes *)
  Alcotest.(check bool) "sabre past max_passes" true
    (Placement.of_name (Printf.sprintf "sabre-%d" (Placement.max_passes + 1))
    = None);
  (match Placement.of_name (Printf.sprintf "sabre-%d" Placement.max_passes) with
  | Some (Placement.Reverse_traversal k) when k = Placement.max_passes -> ()
  | Some _ | None -> Alcotest.fail "sabre-<max_passes>");
  (* a negative seed reads back, min_int included *)
  List.iter
    (fun seed ->
      let s = Placement.Random seed in
      match Placement.of_name (Placement.name s) with
      | Some (Placement.Random n) when n = seed -> ()
      | Some _ | None -> Alcotest.failf "%s" (Placement.name s))
    [ -5; min_int; max_int ];
  (match Placement.of_name "random-42" with
  | Some (Placement.Random 42) -> ()
  | Some _ | None -> Alcotest.fail "random-42");
  match Placement.of_name "sabre-3" with
  | Some (Placement.Reverse_traversal 3) -> ()
  | Some _ | None -> Alcotest.fail "sabre-3"

let test_interaction_counts () =
  let c =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.cx 0 1; Qc.Gate.cx 0 2; Qc.Gate.h 1 ]
  in
  Alcotest.(check (array int)) "counts" [| 2; 1; 1 |]
    (Placement.interaction_counts c)

let all_valid_layout layout ~n_logical ~n_physical =
  Arch.Layout.n_logical layout = n_logical
  && Arch.Layout.n_physical layout = n_physical
  &&
  let seen = Hashtbl.create 8 in
  let ok = ref true in
  for l = 0 to n_logical - 1 do
    let p = Arch.Layout.phys_of_log layout l in
    if p < 0 || p >= n_physical || Hashtbl.mem seen p then ok := false;
    Hashtbl.replace seen p ()
  done;
  !ok

let test_all_strategies_valid () =
  List.iter
    (fun s ->
      let layout = Placement.compute s ~maqam:maqam_tokyo qft8 in
      Alcotest.(check bool)
        (Placement.name s ^ " valid")
        true
        (all_valid_layout layout ~n_logical:8 ~n_physical:20))
    Placement.all

let test_trivial_is_identity () =
  let layout = Placement.compute Placement.Trivial ~maqam:maqam_tokyo qft8 in
  for l = 0 to 7 do
    Alcotest.(check int) "identity" l (Arch.Layout.phys_of_log layout l)
  done

let test_degree_weighted_prefers_center () =
  (* the busiest logical qubit must land on a well-connected physical qubit *)
  let star =
    Qc.Circuit.make ~n_qubits:5
      [ Qc.Gate.cx 0 1; Qc.Gate.cx 0 2; Qc.Gate.cx 0 3; Qc.Gate.cx 0 4 ]
  in
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:3 ~cols:3) ~durations:sc
  in
  let layout = Placement.compute Placement.Degree_weighted ~maqam star in
  let host = Arch.Layout.phys_of_log layout 0 in
  Alcotest.(check int) "hub on the grid centre (degree 4)" 4
    (Arch.Coupling.degree (Arch.Maqam.coupling maqam) host)

let test_strategies_route_correctly () =
  List.iter
    (fun s ->
      let initial = Placement.compute s ~maqam:maqam_tokyo qft8 in
      let r = Codar.Remapper.run ~maqam:maqam_tokyo ~initial qft8 in
      match Schedule.Verify.check_all ~maqam:maqam_tokyo ~original:qft8 r with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s: %a" (Placement.name s) Schedule.Verify.pp_error e)
    Placement.all

let test_random_seed_determinism () =
  let a = Placement.compute (Placement.Random 5) ~maqam:maqam_tokyo qft8 in
  let b = Placement.compute (Placement.Random 5) ~maqam:maqam_tokyo qft8 in
  let c = Placement.compute (Placement.Random 6) ~maqam:maqam_tokyo qft8 in
  Alcotest.(check bool) "same seed" true (Arch.Layout.equal a b);
  Alcotest.(check bool) "different seed" false (Arch.Layout.equal a c)

let test_wide_rejected () =
  let wide = Qc.Circuit.empty 30 in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Placement.name s ^ " rejects wide")
        true
        (try
           ignore (Placement.compute s ~maqam:maqam_tokyo wide);
           false
         with Invalid_argument _ -> true))
    Placement.all

let () =
  Alcotest.run "placement"
    [
      ( "strategies",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "interaction counts" `Quick
            test_interaction_counts;
          Alcotest.test_case "valid layouts" `Quick test_all_strategies_valid;
          Alcotest.test_case "trivial" `Quick test_trivial_is_identity;
          Alcotest.test_case "degree prefers centre" `Quick
            test_degree_weighted_prefers_center;
          Alcotest.test_case "route correctly" `Quick
            test_strategies_route_correctly;
          Alcotest.test_case "random determinism" `Quick
            test_random_seed_determinism;
          Alcotest.test_case "wide rejected" `Quick test_wide_rejected;
        ] );
    ]
