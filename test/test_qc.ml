(* Unit and property tests for the [qc] library: gates, matrices,
   commutation, circuits, DAGs, metrics and decompositions. *)

let gate = Alcotest.testable Qc.Gate.pp Qc.Gate.equal

(* ------------------------------------------------------------------ gates *)

let test_qubits () =
  Alcotest.(check (list int)) "cx operands" [ 0; 3 ] (Qc.Gate.qubits (Qc.Gate.cx 0 3));
  Alcotest.(check (list int)) "h operand" [ 2 ] (Qc.Gate.qubits (Qc.Gate.h 2));
  Alcotest.(check (list int)) "barrier" [ 1; 2 ] (Qc.Gate.qubits (Qc.Gate.barrier [ 1; 2 ]));
  Alcotest.(check (list int)) "measure" [ 4 ] (Qc.Gate.qubits (Qc.Gate.measure 4 0))

let test_predicates () =
  Alcotest.(check bool) "cx is 2q" true (Qc.Gate.is_two_qubit (Qc.Gate.cx 0 1));
  Alcotest.(check bool) "h not 2q" false (Qc.Gate.is_two_qubit (Qc.Gate.h 0));
  Alcotest.(check bool) "swap is swap" true (Qc.Gate.is_swap (Qc.Gate.swap 0 1));
  Alcotest.(check bool) "cx not swap" false (Qc.Gate.is_swap (Qc.Gate.cx 0 1));
  Alcotest.(check bool) "measure not unitary" false
    (Qc.Gate.is_unitary (Qc.Gate.measure 0 0));
  Alcotest.(check bool) "barrier not unitary" false
    (Qc.Gate.is_unitary (Qc.Gate.barrier []))

let test_remap () =
  Alcotest.check gate "remap cx" (Qc.Gate.cx 5 3)
    (Qc.Gate.remap (fun q -> 5 - q) (Qc.Gate.cx 0 2));
  Alcotest.check gate "remap measure keeps clbit" (Qc.Gate.measure 7 1)
    (Qc.Gate.remap (fun _ -> 7) (Qc.Gate.measure 0 1))

let test_names () =
  Alcotest.(check string) "cx" "cx" (Qc.Gate.name (Qc.Gate.cx 0 1));
  Alcotest.(check string) "rz" "rz" (Qc.Gate.name (Qc.Gate.rz 0.3 0));
  Alcotest.(check string) "sdg" "sdg" (Qc.Gate.name (Qc.Gate.sdg 0));
  Alcotest.(check string) "measure" "measure" (Qc.Gate.name (Qc.Gate.measure 0 0))

let test_diagonal_xlike () =
  Alcotest.(check bool) "t diagonal" true (Qc.Gate.diagonal_on (Qc.Gate.t 1) 1);
  Alcotest.(check bool) "t not on other" false (Qc.Gate.diagonal_on (Qc.Gate.t 1) 0);
  Alcotest.(check bool) "cx diag on control" true
    (Qc.Gate.diagonal_on (Qc.Gate.cx 2 3) 2);
  Alcotest.(check bool) "cx not diag on target" false
    (Qc.Gate.diagonal_on (Qc.Gate.cx 2 3) 3);
  Alcotest.(check bool) "cx x-like on target" true
    (Qc.Gate.x_like_on (Qc.Gate.cx 2 3) 3);
  Alcotest.(check bool) "x x-like" true (Qc.Gate.x_like_on (Qc.Gate.x 0) 0);
  Alcotest.(check bool) "cz diag both" true
    (Qc.Gate.diagonal_on (Qc.Gate.cz 0 1) 1);
  Alcotest.(check bool) "xx x-like both" true
    (Qc.Gate.x_like_on (Qc.Gate.xx 0.5 0 1) 0);
  Alcotest.(check bool) "swap neither" false
    (Qc.Gate.diagonal_on (Qc.Gate.swap 0 1) 0 || Qc.Gate.x_like_on (Qc.Gate.swap 0 1) 0)

(* --------------------------------------------------------------- matrices *)

let mat = Alcotest.testable Qc.Matrix.pp (Qc.Matrix.approx_equal ~tol:1e-9)

let all_one_qubit_kinds =
  Qc.Gate.
    [ I; X; Y; Z; H; S; Sdg; T; Tdg; Rx 0.7; Ry 1.1; Rz (-0.4); U1 0.9;
      U2 (0.3, 1.2); U3 (0.5, -0.2, 0.8) ]

let all_two_qubit_kinds = Qc.Gate.[ CX; CZ; Swap; XX 0.6; Rzz (-1.3) ]

let test_unitarity () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "%a unitary" Qc.Gate.pp (Qc.Gate.One (k, 0)))
        true
        (Qc.Matrix.is_unitary (Qc.Matrix.of_one_qubit k)))
    all_one_qubit_kinds;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "%a unitary" Qc.Gate.pp (Qc.Gate.Two (k, 0, 1)))
        true
        (Qc.Matrix.is_unitary (Qc.Matrix.of_two_qubit k)))
    all_two_qubit_kinds

let test_known_identities () =
  (* H² = I, S² = Z, T² = S *)
  let h = Qc.Matrix.of_one_qubit Qc.Gate.H in
  Alcotest.check mat "H^2 = I" (Qc.Matrix.identity 2) (Qc.Matrix.mul h h);
  let s = Qc.Matrix.of_one_qubit Qc.Gate.S in
  Alcotest.check mat "S^2 = Z" (Qc.Matrix.of_one_qubit Qc.Gate.Z)
    (Qc.Matrix.mul s s);
  let t = Qc.Matrix.of_one_qubit Qc.Gate.T in
  Alcotest.check mat "T^2 = S" s (Qc.Matrix.mul t t);
  (* (I ⊗ H_target) CZ (I ⊗ H_target) = CX: conjugating the target by H *)
  let n = 2 in
  let pos q = q in
  let h1 = Qc.Matrix.of_gate (Qc.Gate.h 1) ~positions:pos ~n in
  let cz = Qc.Matrix.of_gate (Qc.Gate.cz 0 1) ~positions:pos ~n in
  let cx = Qc.Matrix.of_gate (Qc.Gate.cx 0 1) ~positions:pos ~n in
  Alcotest.check mat "H CZ H = CX" cx Qc.Matrix.(mul h1 (mul cz h1));
  (* SWAP = CX(0,1) CX(1,0) CX(0,1) *)
  let cx01 = cx in
  let cx10 = Qc.Matrix.of_gate (Qc.Gate.cx 1 0) ~positions:pos ~n in
  let swap = Qc.Matrix.of_gate (Qc.Gate.swap 0 1) ~positions:pos ~n in
  Alcotest.check mat "3 CX = SWAP" swap
    Qc.Matrix.(mul cx01 (mul cx10 cx01))

let test_cx_direction () =
  (* CX with control 0: |01⟩ (control=1, target=0 in little-endian bit0 =
     qubit 0) must map to |11⟩. *)
  let cx = Qc.Matrix.of_gate (Qc.Gate.cx 0 1) ~positions:(fun q -> q) ~n:2 in
  Alcotest.(check bool) "cx |01> -> |11>" true
    (Complex.norm (Complex.sub cx.(3).(1) Complex.one) < 1e-12);
  Alcotest.(check bool) "cx |10> fixed" true
    (Complex.norm (Complex.sub cx.(2).(2) Complex.one) < 1e-12)

let test_embed_errors () =
  let h = Qc.Matrix.of_one_qubit Qc.Gate.H in
  Alcotest.check_raises "out of range" (Invalid_argument "Matrix.embed: position out of range")
    (fun () -> ignore (Qc.Matrix.embed h ~positions:[ 3 ] ~n:2));
  let cx = Qc.Matrix.of_two_qubit Qc.Gate.CX in
  Alcotest.check_raises "duplicate" (Invalid_argument "Matrix.embed: duplicate position")
    (fun () -> ignore (Qc.Matrix.embed cx ~positions:[ 1; 1 ] ~n:2));
  Alcotest.check_raises "size mismatch" (Invalid_argument "Matrix.embed: size mismatch with positions")
    (fun () -> ignore (Qc.Matrix.embed cx ~positions:[ 0 ] ~n:2))

let test_kron_dim () =
  let a = Qc.Matrix.identity 2 and b = Qc.Matrix.identity 4 in
  Alcotest.(check int) "kron dim" 8 (Qc.Matrix.dim (Qc.Matrix.kron a b));
  Alcotest.check mat "kron of identities" (Qc.Matrix.identity 8)
    (Qc.Matrix.kron a b)

let test_equal_up_to_phase () =
  let z = Qc.Matrix.of_one_qubit Qc.Gate.Z in
  let minus_z = Qc.Matrix.scale { Complex.re = -1.; im = 0. } z in
  Alcotest.(check bool) "Z ~ -Z" true (Qc.Matrix.equal_up_to_phase z minus_z);
  Alcotest.(check bool) "Z !~ X" false
    (Qc.Matrix.equal_up_to_phase z (Qc.Matrix.of_one_qubit Qc.Gate.X))

(* ------------------------------------------------------------ commutation *)

let test_commute_cases () =
  let c = Qc.Commute.commutes in
  Alcotest.(check bool) "disjoint" true (c (Qc.Gate.h 0) (Qc.Gate.x 1));
  Alcotest.(check bool) "shared control" true (c (Qc.Gate.cx 0 1) (Qc.Gate.cx 0 2));
  Alcotest.(check bool) "shared target" true (c (Qc.Gate.cx 0 2) (Qc.Gate.cx 1 2));
  Alcotest.(check bool) "control-target chain" false (c (Qc.Gate.cx 0 1) (Qc.Gate.cx 1 2));
  Alcotest.(check bool) "opposed directions" false (c (Qc.Gate.cx 0 1) (Qc.Gate.cx 1 0));
  Alcotest.(check bool) "T on control" true (c (Qc.Gate.t 0) (Qc.Gate.cx 0 1));
  Alcotest.(check bool) "T on target" false (c (Qc.Gate.t 1) (Qc.Gate.cx 0 1));
  Alcotest.(check bool) "X on target" true (c (Qc.Gate.x 1) (Qc.Gate.cx 0 1));
  Alcotest.(check bool) "H on control" false (c (Qc.Gate.h 0) (Qc.Gate.cx 0 1));
  Alcotest.(check bool) "same gate" true (c (Qc.Gate.cx 0 1) (Qc.Gate.cx 0 1));
  Alcotest.(check bool) "cz vs cx shared control" true (c (Qc.Gate.cz 0 1) (Qc.Gate.cx 0 2));
  Alcotest.(check bool) "rz commutes with rz" true (c (Qc.Gate.rz 0.2 0) (Qc.Gate.rz 1.4 0));
  Alcotest.(check bool) "barrier blocks" false (c (Qc.Gate.barrier [ 0 ]) (Qc.Gate.h 0));
  Alcotest.(check bool) "barrier disjoint" true (c (Qc.Gate.barrier [ 0 ]) (Qc.Gate.h 1));
  Alcotest.(check bool) "measure blocks" false (c (Qc.Gate.measure 0 0) (Qc.Gate.h 0));
  (* exact-fallback cases *)
  Alcotest.(check bool) "swap self" true (c (Qc.Gate.swap 0 1) (Qc.Gate.swap 0 1));
  Alcotest.(check bool) "swap vs cx" false (c (Qc.Gate.swap 0 1) (Qc.Gate.cx 0 2));
  Alcotest.(check bool) "xx vs x" true (c (Qc.Gate.xx 0.7 0 1) (Qc.Gate.x 0));
  Alcotest.(check bool) "xx vs z" false (c (Qc.Gate.xx 0.7 0 1) (Qc.Gate.z 0))

(* random gates over a 3-qubit window *)
let gate_gen =
  let open QCheck.Gen in
  let angle = oneofl [ 0.25; 0.5; 1.0; Float.pi /. 4.; -0.8 ] in
  let one_q =
    oneof
      [
        oneofl Qc.Gate.[ I; X; Y; Z; H; S; Sdg; T; Tdg ];
        map (fun a -> Qc.Gate.Rx a) angle;
        map (fun a -> Qc.Gate.Ry a) angle;
        map (fun a -> Qc.Gate.Rz a) angle;
        map (fun a -> Qc.Gate.U1 a) angle;
      ]
  in
  let two_q =
    oneof
      [
        oneofl Qc.Gate.[ CX; CZ; Swap ];
        map (fun a -> Qc.Gate.XX a) angle;
        map (fun a -> Qc.Gate.Rzz a) angle;
      ]
  in
  oneof
    [
      (let* k = one_q in
       let* q = int_range 0 2 in
       return (Qc.Gate.One (k, q)));
      (let* k = two_q in
       let* q1 = int_range 0 2 in
       let* q2 = int_range 0 2 in
       if q1 = q2 then return (Qc.Gate.Two (k, q1, (q1 + 1) mod 3))
       else return (Qc.Gate.Two (k, q1, q2)));
    ]

let gate_arb = QCheck.make ~print:Qc.Gate.to_string gate_gen

let prop_rule_agrees_with_oracle =
  QCheck.Test.make ~count:500 ~name:"commute rule agrees with matrix oracle"
    (QCheck.pair gate_arb gate_arb)
    (fun (a, b) ->
      match Qc.Commute.commutes_by_rule a b with
      | None -> true
      | Some r -> r = Qc.Matrix.commute a b)

let prop_commute_symmetric =
  QCheck.Test.make ~count:300 ~name:"commutation is symmetric"
    (QCheck.pair gate_arb gate_arb)
    (fun (a, b) -> Qc.Commute.commutes a b = Qc.Commute.commutes b a)

(* Every gate kind, with and without parameters, plus barriers (empty and
   with a repeated qubit) and measures, over a 3-qubit window so most
   pairs share a qubit. Angles include multiples of 2π off by 1e-7 (the
   Z-phase rule's margin), shared values (so parametrised pairs repeat
   and the route memo answers) and full-precision draws. *)
let compiled_gate_gen =
  let open QCheck.Gen in
  let angle =
    oneof
      [
        oneofl
          [ 0.; 0.5; Float.pi /. 4.; -0.8; (2. *. Float.pi) +. 1e-7;
            (4. *. Float.pi) -. 1e-7; 1e-7; Float.pi ];
        float_range (-4.) 4.;
      ]
  in
  let q = int_range 0 2 in
  let one_q =
    oneof
      [
        oneofl Qc.Gate.[ I; X; Y; Z; H; S; Sdg; T; Tdg ];
        map (fun a -> Qc.Gate.Rx a) angle;
        map (fun a -> Qc.Gate.Ry a) angle;
        map (fun a -> Qc.Gate.Rz a) angle;
        map (fun a -> Qc.Gate.U1 a) angle;
        map2 (fun a b -> Qc.Gate.U2 (a, b)) angle angle;
        map3 (fun a b c -> Qc.Gate.U3 (a, b, c)) angle angle angle;
      ]
  in
  let two_q =
    oneof
      [
        oneofl Qc.Gate.[ CX; CZ; Swap ];
        map (fun a -> Qc.Gate.XX a) angle;
        map (fun a -> Qc.Gate.Rzz a) angle;
      ]
  in
  frequency
    [
      (6, map2 (fun k q -> Qc.Gate.One (k, q)) one_q q);
      ( 6,
        let* k = two_q in
        let* q1 = q in
        let* d = int_range 1 2 in
        return (Qc.Gate.Two (k, q1, (q1 + d) mod 3)) );
      (1, map (fun qs -> Qc.Gate.Barrier qs) (list_size (int_range 0 3) q));
      (1, map2 (fun q c -> Qc.Gate.Measure (q, c)) q (int_range 0 2));
    ]

let prop_compiled_matches_commutes =
  QCheck.Test.make ~count:200
    ~name:"index checker = Commute.commutes on every ordered pair"
    QCheck.(
      make
        ~print:(fun a ->
          String.concat "; " (Array.to_list (Array.map Qc.Gate.to_string a)))
        QCheck.Gen.(array_size (int_range 1 24) compiled_gate_gen))
    (fun gates ->
      let c = Qc.Commute.Compiled.make gates in
      let n = Array.length gates in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            Qc.Commute.Compiled.commutes c i j
            <> Qc.Commute.commutes gates.(i) gates.(j)
          then ok := false
        done
      done;
      !ok)

(* Exhaustive cross product of every supported gate kind (parametrised
   kinds at fixed awkward angles plus seeded random ones) over a 3-qubit
   window, checked against the matrix commutator. This is the ground
   truth behind CODAR's Commutative Front: a wrong [commutes] answer
   reorders gates illegally, so every kind x kind x overlap pattern gets
   pinned, not just a random sample. *)
let exhaustive_gate_pool extra_angles =
  let angles = [ 0.3; -1.1; Float.pi /. 4. ] @ extra_angles in
  let one_kinds =
    Qc.Gate.[ I; X; Y; Z; H; S; Sdg; T; Tdg ]
    @ List.concat_map
        (fun a ->
          Qc.Gate.
            [ Rx a; Ry a; Rz a; U1 a; U2 (a, -.a); U3 (a, -.a, a /. 2.) ])
        angles
  in
  let two_kinds =
    Qc.Gate.[ CX; CZ; Swap ]
    @ List.concat_map (fun a -> Qc.Gate.[ XX a; Rzz a ]) angles
  in
  (* one-qubit gates on the two qubits that can overlap a pair, two-qubit
     gates on every ordered pair: covers disjoint, one-shared (either
     role) and both-shared (aligned and crossed) placements *)
  List.concat_map (fun k -> [ Qc.Gate.One (k, 0); Qc.Gate.One (k, 1) ]) one_kinds
  @ List.concat_map
      (fun k ->
        [
          Qc.Gate.Two (k, 0, 1);
          Qc.Gate.Two (k, 1, 0);
          Qc.Gate.Two (k, 0, 2);
          Qc.Gate.Two (k, 1, 2);
        ])
      two_kinds

(* The Z-phase rule answers "does not commute" without matrices for an rz
   or u1 meeting x, y, h or a cx target. Its cases sit at and next to the
   angles where it must hand over to the exact check: multiples of 2π,
   1e-12 off them, and either side of the 1e-6 margin, with the phase gate
   on the cx target and on its control, in both argument orders. *)
let phase_margin_pairs =
  let tau = 2. *. Float.pi in
  let angles =
    [ 0.; tau; -.tau; 2. *. tau; 1e-12; -1e-12; tau +. 1e-12; tau -. 1e-12;
      1e-7; -1e-7; 1e-5; -1e-5 ]
  in
  let others =
    [ Qc.Gate.x 1; Qc.Gate.y 1; Qc.Gate.h 1; Qc.Gate.cx 0 1; Qc.Gate.cx 1 0 ]
  in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun p -> List.concat_map (fun o -> [ (p, o); (o, p) ]) others)
        [ Qc.Gate.rz a 1; Qc.Gate.u1 a 1 ])
    angles

let test_commute_exhaustive () =
  let rng = Random.State.make [| 2020 |] in
  let random_angles =
    List.init 2 (fun _ -> Random.State.float rng (2. *. Float.pi) -. Float.pi)
  in
  let pool = exhaustive_gate_pool random_angles in
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) pool) pool
    @ phase_margin_pairs
  in
  (* a route's memoised check must answer as the stateless one does *)
  let memoised = Qc.Commute.memoised () in
  let fallbacks = ref 0 and commuting = ref 0 in
  List.iter
    (fun (a, b) ->
      let expected = Qc.Matrix.commute a b in
      if expected then incr commuting;
      let got = Qc.Commute.commutes a b in
      if got <> expected then
        Alcotest.failf "commutes %s / %s: got %b, oracle says %b"
          (Qc.Gate.to_string a) (Qc.Gate.to_string b) got expected;
      if memoised a b <> expected then
        Alcotest.failf "memoised %s / %s: got %b, oracle says %b"
          (Qc.Gate.to_string a) (Qc.Gate.to_string b) (not expected) expected;
      (* the structural fast path must never contradict the oracle *)
      (match Qc.Commute.commutes_by_rule a b with
      | None -> incr fallbacks
      | Some r ->
        if r <> expected then
          Alcotest.failf "rule %s / %s: got %b, oracle says %b"
            (Qc.Gate.to_string a) (Qc.Gate.to_string b) r expected);
      if Qc.Commute.commutes b a <> got then
        Alcotest.failf "asymmetric: %s / %s" (Qc.Gate.to_string a)
          (Qc.Gate.to_string b))
    pairs;
  Alcotest.(check int) "z-phase cases" 240 (List.length phase_margin_pairs);
  Alcotest.(check bool) "cross product is big" true (List.length pairs > 10_000);
  Alcotest.(check bool) "some pairs used the exact fallback" true
    (!fallbacks > 0);
  Alcotest.(check bool) "both verdicts occur" true
    (!commuting > 0 && !commuting < List.length pairs)

(* Barrier and Measure are not unitary: they commute exactly with gates
   on disjoint qubits, never with overlapping ones. *)
let test_commute_nonunitary () =
  let specials =
    [
      Qc.Gate.barrier [ 0 ];
      Qc.Gate.barrier [ 0; 1 ];
      Qc.Gate.barrier [ 0; 1; 2 ];
      Qc.Gate.measure 0 0;
      Qc.Gate.measure 1 0;
    ]
  in
  let others =
    specials
    @ [
        Qc.Gate.h 0; Qc.Gate.rz 0.4 1; Qc.Gate.cx 0 1; Qc.Gate.cx 1 2;
        Qc.Gate.xx 0.7 0 2;
      ]
  in
  let disjoint a b =
    List.for_all (fun q -> not (List.mem q (Qc.Gate.qubits b))) (Qc.Gate.qubits a)
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expected = disjoint a b in
          if Qc.Commute.commutes a b <> expected then
            Alcotest.failf "non-unitary commute %s / %s: expected %b"
              (Qc.Gate.to_string a) (Qc.Gate.to_string b) expected;
          if Qc.Commute.commutes b a <> expected then
            Alcotest.failf "non-unitary commute %s / %s (flipped): expected %b"
              (Qc.Gate.to_string b) (Qc.Gate.to_string a) expected)
        others)
    specials

let prop_inverse =
  QCheck.Test.make ~count:300 ~name:"g * inverse g = identity" gate_arb
    (fun g ->
      match Qc.Gate.inverse g with
      | None -> QCheck.assume_fail ()
      | Some g' ->
        let n = 3 in
        let m = Qc.Matrix.of_gate g ~positions:(fun q -> q) ~n in
        let m' = Qc.Matrix.of_gate g' ~positions:(fun q -> q) ~n in
        Qc.Matrix.approx_equal (Qc.Matrix.mul m m')
          (Qc.Matrix.identity (1 lsl n)))

(* --------------------------------------------------------------- circuits *)

let test_circuit_make () =
  let c = Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.h 0; Qc.Gate.cx 0 2 ] in
  Alcotest.(check int) "width" 3 (Qc.Circuit.n_qubits c);
  Alcotest.(check int) "length" 2 (Qc.Circuit.length c);
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 2 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "repeated operand rejected" true
    (try
       ignore (Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.cx 1 1 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative width rejected" true
    (try
       ignore (Qc.Circuit.make ~n_qubits:(-1) []);
       false
     with Invalid_argument _ -> true)

let test_circuit_ops () =
  let a = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0 ] in
  let b = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.cx 0 1 ] in
  let ab = Qc.Circuit.concat a b in
  Alcotest.(check int) "concat" 2 (Qc.Circuit.length ab);
  Alcotest.(check bool) "concat width mismatch" true
    (try
       ignore (Qc.Circuit.concat a (Qc.Circuit.empty 3));
       false
     with Invalid_argument _ -> true);
  let r = Qc.Circuit.reverse ab in
  Alcotest.check gate "reverse head" (Qc.Gate.cx 0 1)
    (List.hd (Qc.Circuit.gates r));
  Alcotest.(check (list int)) "used qubits" [ 0; 1 ] (Qc.Circuit.used_qubits ab);
  let appended = Qc.Circuit.append a (Qc.Gate.x 1) in
  Alcotest.(check int) "append" 2 (Qc.Circuit.length appended)

let test_circuit_inverse () =
  let c =
    Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.s 1; Qc.Gate.cx 0 1 ]
  in
  (match Qc.Circuit.inverse c with
  | None -> Alcotest.fail "expected inverse"
  | Some inv ->
    Alcotest.check gate "first gate of inverse" (Qc.Gate.cx 0 1)
      (List.hd (Qc.Circuit.gates inv));
    Alcotest.check gate "sdg appears" (Qc.Gate.sdg 1)
      (List.nth (Qc.Circuit.gates inv) 1));
  let with_measure =
    Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.measure 0 0 ]
  in
  Alcotest.(check bool) "no inverse with measure" true
    (Qc.Circuit.inverse with_measure = None)

(* -------------------------------------------------------------------- dag *)

let test_dag () =
  let c =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.x 2; Qc.Gate.cx 1 2 ]
  in
  let d = Qc.Dag.of_circuit c in
  Alcotest.(check int) "nodes" 4 (Qc.Dag.n_nodes d);
  Alcotest.(check (list int)) "preds of cx01" [ 0 ] (Qc.Dag.preds d 1);
  Alcotest.(check (list int)) "preds of cx12" [ 1; 2 ] (Qc.Dag.preds d 3);
  Alcotest.(check (list int)) "succs of h" [ 1 ] (Qc.Dag.succs d 0);
  let done_ = Array.make 4 false in
  Alcotest.(check (list int)) "initial front" [ 0; 2 ]
    (Qc.Dag.front_layer d ~done_);
  done_.(0) <- true;
  Alcotest.(check (list int)) "front after h" [ 1; 2 ]
    (Qc.Dag.front_layer d ~done_);
  Alcotest.(check int) "critical path (unit)" 3
    (Qc.Dag.critical_path_length d ~weight:(fun _ -> 1));
  Alcotest.(check int) "critical path (weighted)" 5
    (Qc.Dag.critical_path_length d ~weight:(fun g ->
         if Qc.Gate.is_two_qubit g then 2 else 1))

(* ---------------------------------------------------------------- metrics *)

let test_metrics () =
  let c =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.cx 1 2; Qc.Gate.swap 0 1 ]
  in
  Alcotest.(check int) "depth" 4 (Qc.Metrics.depth c);
  Alcotest.(check int) "gate count" 4 (Qc.Metrics.gate_count c);
  Alcotest.(check int) "2q count" 3 (Qc.Metrics.two_qubit_count c);
  Alcotest.(check int) "swap count" 1 (Qc.Metrics.swap_count c);
  Alcotest.(check (list (pair string int))) "histogram"
    [ ("cx", 2); ("h", 1); ("swap", 1) ]
    (Qc.Metrics.count_by_name c)

(* --------------------------------------------------------- decompositions *)

let circuit_matrix n gates =
  List.fold_left
    (fun acc g ->
      Qc.Matrix.mul (Qc.Matrix.of_gate g ~positions:(fun q -> q) ~n) acc)
    (Qc.Matrix.identity (1 lsl n))
    gates

let reference_permutation n f =
  let m = Qc.Matrix.make (1 lsl n) in
  for j = 0 to (1 lsl n) - 1 do
    m.(f j).(j) <- Complex.one
  done;
  m

let test_toffoli () =
  let actual = circuit_matrix 3 (Qc.Decompose.toffoli 0 1 2) in
  let expected =
    reference_permutation 3 (fun b ->
        if b land 1 <> 0 && b land 2 <> 0 then b lxor 4 else b)
  in
  Alcotest.check mat "toffoli decomposition" expected actual

let test_cphase () =
  let theta = 0.7 in
  let actual = circuit_matrix 2 (Qc.Decompose.cphase theta 0 1) in
  let expected = Qc.Matrix.identity 4 in
  expected.(3).(3) <- { Complex.re = cos theta; im = sin theta };
  Alcotest.check mat "cphase decomposition" expected actual

let test_ccz () =
  let actual = circuit_matrix 3 (Qc.Decompose.ccz 0 1 2) in
  let expected = Qc.Matrix.identity 8 in
  expected.(7).(7) <- { Complex.re = -1.; im = 0. };
  Alcotest.check mat "ccz decomposition" expected actual

let test_cswap () =
  let actual = circuit_matrix 3 (Qc.Decompose.controlled_swap 0 1 2) in
  let expected =
    reference_permutation 3 (fun b ->
        if b land 1 <> 0 then
          let b1 = (b lsr 1) land 1 and b2 = (b lsr 2) land 1 in
          (b land 1) lor (b2 lsl 1) lor (b1 lsl 2)
        else b)
  in
  Alcotest.check mat "fredkin decomposition" expected actual

(* The V-chain MCX is the multi-controlled X only on the subspace where the
   ancillas are |0⟩ (they are computed and uncomputed); compare columns of
   that subspace only. *)
let check_mcx_on_clean_ancillas name ~n ~ancilla_mask ~flip_when ~flip_bit
    gates =
  let actual = circuit_matrix n gates in
  let ok = ref true in
  for j = 0 to (1 lsl n) - 1 do
    if j land ancilla_mask = 0 then begin
      let expected_row = if flip_when j then j lxor flip_bit else j in
      for i = 0 to (1 lsl n) - 1 do
        let want = if i = expected_row then 1. else 0. in
        if Float.abs (Complex.norm actual.(i).(j) -. want) > 1e-9 then
          ok := false
      done
    end
  done;
  Alcotest.(check bool) name true !ok

let test_mcx () =
  (* 3 controls (0,1,2), target 3, ancilla 4 — ancilla must return clean *)
  check_mcx_on_clean_ancillas "mcx 3 controls" ~n:5 ~ancilla_mask:0b10000
    ~flip_when:(fun b -> b land 0b111 = 0b111)
    ~flip_bit:0b1000
    (Qc.Decompose.mcx ~controls:[ 0; 1; 2 ] ~target:3 ~ancillas:[ 4 ]);
  (* 4 controls, 2 ancillas *)
  check_mcx_on_clean_ancillas "mcx 4 controls" ~n:7 ~ancilla_mask:0b1100000
    ~flip_when:(fun b -> b land 0b1111 = 0b1111)
    ~flip_bit:0b10000
    (Qc.Decompose.mcx ~controls:[ 0; 1; 2; 3 ] ~target:4 ~ancillas:[ 5; 6 ]);
  Alcotest.(check bool) "insufficient ancillas rejected" true
    (try
       ignore (Qc.Decompose.mcx ~controls:[ 0; 1; 2; 3 ] ~target:4 ~ancillas:[ 5 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "collision rejected" true
    (try
       ignore (Qc.Decompose.mcx ~controls:[ 0; 1 ] ~target:0 ~ancillas:[]);
       false
     with Invalid_argument _ -> true)

(* --------------------------------------------------------------- optimize *)

let test_optimize_identities () =
  let c =
    Qc.Circuit.make ~n_qubits:2
      [ Qc.Gate.i 0; Qc.Gate.h 0; Qc.Gate.rz 0. 1; Qc.Gate.rzz (4. *. Float.pi) 0 1 ]
  in
  let c' = Qc.Optimize.remove_identities c in
  Alcotest.(check int) "only H survives" 1 (Qc.Circuit.length c')

let test_optimize_cancel () =
  let c =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.h 0; Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.cx 0 1;
        Qc.Gate.s 2; Qc.Gate.sdg 2; Qc.Gate.t 1 ]
  in
  let c' = Qc.Optimize.cancel_inverses c in
  Alcotest.(check (list string)) "only t survives" [ "t" ]
    (List.map Qc.Gate.name (Qc.Circuit.gates c'));
  (* an interposed gate on a shared qubit blocks cancellation *)
  let blocked =
    Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.cx 0 1; Qc.Gate.h 1; Qc.Gate.cx 0 1 ]
  in
  Alcotest.(check int) "blocked pair kept" 3
    (Qc.Circuit.length (Qc.Optimize.cancel_inverses blocked));
  (* reversed operand order is NOT an inverse *)
  let reversed =
    Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.cx 0 1; Qc.Gate.cx 1 0 ]
  in
  Alcotest.(check int) "cx 01 / cx 10 kept" 2
    (Qc.Circuit.length (Qc.Optimize.cancel_inverses reversed))

let test_optimize_merge () =
  let c =
    Qc.Circuit.make ~n_qubits:2
      [ Qc.Gate.rz 0.3 0; Qc.Gate.rz 0.4 0; Qc.Gate.t 1; Qc.Gate.t 1;
        Qc.Gate.rzz 0.1 0 1; Qc.Gate.rzz 0.2 0 1 ]
  in
  match Qc.Circuit.gates (Qc.Optimize.merge_rotations c) with
  | [ Qc.Gate.One (Qc.Gate.Rz a, 0); Qc.Gate.One (Qc.Gate.U1 p, 1);
      Qc.Gate.Two (Qc.Gate.Rzz z, 0, 1) ] ->
    Alcotest.(check (float 1e-12)) "rz sum" 0.7 a;
    Alcotest.(check (float 1e-12)) "t+t = s phase" (Float.pi /. 2.) p;
    Alcotest.(check (float 1e-12)) "rzz sum" 0.3 z
  | gates -> Alcotest.failf "unexpected result (%d gates)" (List.length gates)

let test_optimize_fixpoint_cascade () =
  (* merging T;Tdg gives U1(0), which the identity pass then removes,
     exposing the surrounding H;H pair for cancellation *)
  let c =
    Qc.Circuit.make ~n_qubits:1
      [ Qc.Gate.h 0; Qc.Gate.t 0; Qc.Gate.tdg 0; Qc.Gate.h 0 ]
  in
  Alcotest.(check int) "everything collapses" 0
    (Qc.Circuit.length (Qc.Optimize.optimize c))

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~count:100
    ~name:"optimize preserves the unitary (up to global phase)"
    QCheck.(small_list (pair (int_bound 7) (int_bound 2)))
    (fun choices ->
      let gates =
        List.map
          (fun (g, q) ->
            let q2 = (q + 1) mod 3 in
            match g with
            | 0 -> Qc.Gate.h q
            | 1 -> Qc.Gate.t q
            | 2 -> Qc.Gate.tdg q
            | 3 -> Qc.Gate.rz 0.7 q
            | 4 -> Qc.Gate.rz (-0.7) q
            | 5 -> Qc.Gate.cx q q2
            | 6 -> Qc.Gate.i q
            | _ -> Qc.Gate.rzz 0.4 q q2)
          choices
      in
      let c = Qc.Circuit.make ~n_qubits:3 gates in
      let c' = Qc.Optimize.optimize c in
      let m circ =
        List.fold_left
          (fun acc g ->
            Qc.Matrix.mul (Qc.Matrix.of_gate g ~positions:(fun q -> q) ~n:3) acc)
          (Qc.Matrix.identity 8) (Qc.Circuit.gates circ)
      in
      Qc.Circuit.length c' <= Qc.Circuit.length c
      && Qc.Matrix.equal_up_to_phase ~tol:1e-9 (m c) (m c'))

let prop_to_u3_roundtrip =
  QCheck.Test.make ~count:300 ~name:"to_u3_angles reconstructs the unitary"
    gate_arb
    (fun g ->
      match g with
      | Qc.Gate.One (k, _) ->
        let u = Qc.Matrix.of_one_qubit k in
        let theta, phi, lam = Qc.Matrix.to_u3_angles u in
        Qc.Matrix.equal_up_to_phase ~tol:1e-7 u
          (Qc.Matrix.of_one_qubit (Qc.Gate.U3 (theta, phi, lam)))
      | Qc.Gate.Two _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ ->
        QCheck.assume_fail ())

let test_fuse_single_qubit () =
  let c =
    Qc.Circuit.make ~n_qubits:2
      [ Qc.Gate.h 0; Qc.Gate.t 0; Qc.Gate.h 0;  (* a 3-gate run on q0 *)
        Qc.Gate.x 1;                             (* lone gate on q1 *)
        Qc.Gate.cx 0 1;
        Qc.Gate.s 0; Qc.Gate.sdg 0 ]             (* identity run: vanishes *)
  in
  let fused = Qc.Optimize.fuse_single_qubit c in
  Alcotest.(check (list string)) "shape" [ "u3"; "x"; "cx" ]
    (List.map Qc.Gate.name (Qc.Circuit.gates fused))

let prop_fusion_preserves_semantics =
  QCheck.Test.make ~count:100
    ~name:"1q fusion preserves the unitary (up to global phase)"
    QCheck.(small_list (pair (int_bound 6) (int_bound 2)))
    (fun choices ->
      let gates =
        List.map
          (fun (g, q) ->
            let q2 = (q + 1) mod 3 in
            match g with
            | 0 -> Qc.Gate.h q
            | 1 -> Qc.Gate.t q
            | 2 -> Qc.Gate.u2 0.3 (-0.7) q
            | 3 -> Qc.Gate.ry 0.4 q
            | 4 -> Qc.Gate.cx q q2
            | 5 -> Qc.Gate.x q
            | _ -> Qc.Gate.rz 1.1 q)
          choices
      in
      let c = Qc.Circuit.make ~n_qubits:3 gates in
      let fused = Qc.Optimize.fuse_single_qubit c in
      let m circ =
        List.fold_left
          (fun acc g ->
            Qc.Matrix.mul (Qc.Matrix.of_gate g ~positions:(fun q -> q) ~n:3) acc)
          (Qc.Matrix.identity 8) (Qc.Circuit.gates circ)
      in
      (* no 1q gate may directly follow another on the same qubit *)
      let no_adjacent_runs =
        let last_was_1q = Array.make 3 false in
        List.for_all
          (fun g ->
            match g with
            | Qc.Gate.One (_, q) ->
              let ok = not last_was_1q.(q) in
              last_was_1q.(q) <- true;
              ok
            | Qc.Gate.Two _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ ->
              List.iter (fun q -> last_was_1q.(q) <- false) (Qc.Gate.qubits g);
              true)
          (Qc.Circuit.gates fused)
      in
      no_adjacent_runs
      && Qc.Matrix.equal_up_to_phase ~tol:1e-7 (m c) (m fused))

(* ------------------------------------------------------------------ basis *)

let circuit_matrix_basis n circuit =
  List.fold_left
    (fun acc g ->
      Qc.Matrix.mul (Qc.Matrix.of_gate g ~positions:(fun q -> q) ~n) acc)
    (Qc.Matrix.identity (1 lsl n))
    (Qc.Circuit.gates circuit)

let test_basis_identities () =
  let cx = Qc.Matrix.of_gate (Qc.Gate.cx 0 1) ~positions:(fun q -> q) ~n:2 in
  let as_matrix gates =
    circuit_matrix_basis 2 (Qc.Circuit.make ~n_qubits:2 gates)
  in
  Alcotest.(check bool) "cx via xx (ion trap)" true
    (Qc.Matrix.equal_up_to_phase cx (as_matrix (Qc.Basis.cx_to_xx 0 1)));
  Alcotest.(check bool) "cx via cz" true
    (Qc.Matrix.equal_up_to_phase cx (as_matrix (Qc.Basis.cx_to_cz 0 1)));
  let cz = Qc.Matrix.of_gate (Qc.Gate.cz 0 1) ~positions:(fun q -> q) ~n:2 in
  Alcotest.(check bool) "cz via cx" true
    (Qc.Matrix.equal_up_to_phase cz (as_matrix (Qc.Basis.cz_to_cx 0 1)))

let test_basis_translate () =
  let c =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.cz 1 2; Qc.Gate.swap 0 2;
        Qc.Gate.rzz 0.4 0 1; Qc.Gate.xx 0.7 1 2; Qc.Gate.t 2 ]
  in
  let reference = circuit_matrix_basis 3 c in
  List.iter
    (fun target ->
      let translated = Qc.Basis.translate target c in
      Alcotest.(check bool)
        (Qc.Basis.set_name target ^ " conforms")
        true
        (Qc.Basis.conforms target translated);
      Alcotest.(check bool)
        (Qc.Basis.set_name target ^ " preserves semantics")
        true
        (Qc.Matrix.equal_up_to_phase ~tol:1e-9 reference
           (circuit_matrix_basis 3 translated)))
    [ Qc.Basis.Cx_based; Qc.Basis.Cz_based; Qc.Basis.Xx_based ];
  (* mixed circuits do not conform before translation *)
  Alcotest.(check bool) "input not cx-conformant" false
    (Qc.Basis.conforms Qc.Basis.Cx_based c)

(* The one-pass scan against the DAG's critical path it replaces, on fuzz
   circuits with barriers (empty ones too), measures between gates, and
   one-qubit-only circuits. *)
let prop_depth_scan_matches_dag =
  QCheck.Test.make ~count:300 ~name:"depth scan = Dag critical path"
    QCheck.(triple (int_bound 1_000_000) (int_range 1 6) bool)
    (fun (seed, n, one_qubit_only) ->
      let rng = Random.State.make [| seed |] in
      let mix =
        if one_qubit_only then { Fuzz.Gen.one_qubit = 3; two_qubit = 0; barrier = 1 }
        else Fuzz.Gen.default_mix
      in
      let base =
        Fuzz.Gen.circuit_rng rng
          (Fuzz.Gen.config ~mix ~measures:Fuzz.Gen.Trailing ~n_qubits:n
             ~gates:(Random.State.int rng 40) ())
      in
      (* splice in empty barriers and mid-circuit measures *)
      let gates =
        List.concat_map
          (fun g ->
            match Random.State.int rng 8 with
            | 0 -> [ Qc.Gate.barrier []; g ]
            | 1 -> [ g; Qc.Gate.measure (Random.State.int rng n) 0 ]
            | _ -> [ g ])
          (Qc.Circuit.gates base)
      in
      let c = Qc.Circuit.make ~n_qubits:n gates in
      let dag = Qc.Dag.of_circuit c in
      List.for_all
        (fun weight ->
          Qc.Metrics.weighted_depth ~weight c
          = Qc.Dag.critical_path_length dag ~weight)
        [
          (fun _ -> 1);
          Arch.Durations.of_gate Arch.Durations.superconducting;
          Arch.Durations.of_gate Arch.Durations.ion_trap;
        ]
      && Qc.Metrics.depth c = Qc.Dag.critical_path_length dag ~weight:(fun _ -> 1))

let () =
  Alcotest.run "qc"
    [
      ( "gate",
        [
          Alcotest.test_case "qubits" `Quick test_qubits;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "remap" `Quick test_remap;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "diagonal/x-like" `Quick test_diagonal_xlike;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "unitarity" `Quick test_unitarity;
          Alcotest.test_case "identities" `Quick test_known_identities;
          Alcotest.test_case "cx direction" `Quick test_cx_direction;
          Alcotest.test_case "embed errors" `Quick test_embed_errors;
          Alcotest.test_case "kron" `Quick test_kron_dim;
          Alcotest.test_case "phase equality" `Quick test_equal_up_to_phase;
        ] );
      ( "commute",
        [
          Alcotest.test_case "cases" `Quick test_commute_cases;
          Alcotest.test_case "exhaustive vs matrix oracle" `Quick
            test_commute_exhaustive;
          Alcotest.test_case "barrier/measure disjointness" `Quick
            test_commute_nonunitary;
          QCheck_alcotest.to_alcotest prop_rule_agrees_with_oracle;
          QCheck_alcotest.to_alcotest prop_commute_symmetric;
          QCheck_alcotest.to_alcotest prop_compiled_matches_commutes;
          QCheck_alcotest.to_alcotest prop_inverse;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "make" `Quick test_circuit_make;
          Alcotest.test_case "ops" `Quick test_circuit_ops;
          Alcotest.test_case "inverse" `Quick test_circuit_inverse;
        ] );
      ("dag", [ Alcotest.test_case "structure" `Quick test_dag ]);
      ( "metrics",
        [
          Alcotest.test_case "basic" `Quick test_metrics;
          QCheck_alcotest.to_alcotest prop_depth_scan_matches_dag;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "toffoli" `Quick test_toffoli;
          Alcotest.test_case "cphase" `Quick test_cphase;
          Alcotest.test_case "ccz" `Quick test_ccz;
          Alcotest.test_case "cswap" `Quick test_cswap;
          Alcotest.test_case "mcx" `Quick test_mcx;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "identities" `Quick test_optimize_identities;
          Alcotest.test_case "cancel" `Quick test_optimize_cancel;
          Alcotest.test_case "merge" `Quick test_optimize_merge;
          Alcotest.test_case "fixpoint cascade" `Quick
            test_optimize_fixpoint_cascade;
          QCheck_alcotest.to_alcotest prop_optimize_preserves_semantics;
          Alcotest.test_case "1q fusion" `Quick test_fuse_single_qubit;
          QCheck_alcotest.to_alcotest prop_to_u3_roundtrip;
          QCheck_alcotest.to_alcotest prop_fusion_preserves_semantics;
        ] );
      ( "basis",
        [
          Alcotest.test_case "identities" `Quick test_basis_identities;
          Alcotest.test_case "translate" `Quick test_basis_translate;
        ] );
    ]
