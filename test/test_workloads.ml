(* Tests for the workload generators: every family is checked semantically
   with the state-vector simulator, and the 71-benchmark suite's invariants
   are pinned down. *)

let complex_close a b = Complex.norm (Complex.sub a b) < 1e-7

let amp sv i = Sim.Statevector.amplitude sv i

(* ------------------------------------------------------------- semantics *)

let test_ghz () =
  let sv = Sim.Statevector.run (Workloads.Builders.ghz 4) in
  let r = 1. /. sqrt 2. in
  Alcotest.(check bool) "|0000> + |1111>" true
    (complex_close (amp sv 0) { Complex.re = r; im = 0. }
    && complex_close (amp sv 15) { Complex.re = r; im = 0. });
  let rest = ref 0. in
  for i = 1 to 14 do
    rest := !rest +. Complex.norm2 (amp sv i)
  done;
  Alcotest.(check (float 1e-9)) "nothing else" 0. !rest

let test_bv_recovers_secret () =
  (* after the algorithm the data register holds the secret exactly *)
  let n = 6 and secret = 0b10110 in
  let sv =
    Sim.Statevector.run (Workloads.Builders.bernstein_vazirani ~n ~secret)
  in
  (* data = qubits 0..4; ancilla is in |-> ; probability mass must sit
     entirely on data = secret *)
  let p = ref 0. in
  for i = 0 to (1 lsl n) - 1 do
    if i land 0b11111 = secret then p := !p +. Complex.norm2 (amp sv i)
  done;
  Alcotest.(check (float 1e-9)) "P(data = secret)" 1. !p

let test_dj () =
  let read_data_zero_mass n sv =
    let p = ref 0. in
    let mask = (1 lsl (n - 1)) - 1 in
    for i = 0 to (1 lsl n) - 1 do
      if i land mask = 0 then p := !p +. Complex.norm2 (amp sv i)
    done;
    !p
  in
  let n = 5 in
  let constant =
    Sim.Statevector.run (Workloads.Builders.deutsch_jozsa ~n ~balanced:false)
  in
  Alcotest.(check (float 1e-9)) "constant -> data all zero" 1.
    (read_data_zero_mass n constant);
  let balanced =
    Sim.Statevector.run (Workloads.Builders.deutsch_jozsa ~n ~balanced:true)
  in
  Alcotest.(check (float 1e-9)) "balanced -> data never zero" 0.
    (read_data_zero_mass n balanced)

let test_adder_adds () =
  let bits = 3 in
  (* prepare a = 5, b = 3 with X gates, run, read b (it becomes a+b) *)
  let a_val = 5 and b_val = 3 in
  let prep =
    List.concat
      [
        List.filteri (fun i _ -> a_val land (1 lsl i) <> 0)
          (List.init bits (fun i -> Qc.Gate.x (1 + i)))
        |> List.map (fun g -> g);
        List.filteri (fun i _ -> b_val land (1 lsl i) <> 0)
          (List.init bits (fun i -> Qc.Gate.x (1 + bits + i)));
      ]
  in
  let n = (2 * bits) + 2 in
  let circuit =
    Qc.Circuit.concat
      (Qc.Circuit.make ~n_qubits:n prep)
      (Workloads.Builders.cuccaro_adder ~bits)
  in
  let sv = Sim.Statevector.run circuit in
  (* expected basis state: a unchanged, b = a+b (mod 2^bits), carry-out *)
  let sum = a_val + b_val in
  let expected =
    (a_val lsl 1)
    lor ((sum land ((1 lsl bits) - 1)) lsl (1 + bits))
    lor (if sum lsr bits <> 0 then 1 lsl ((2 * bits) + 1) else 0)
  in
  Alcotest.(check bool)
    (Fmt.str "5 + 3 = 8: basis %d" expected)
    true
    (complex_close (amp sv expected) Complex.one)

let test_grover_amplifies () =
  let n = 3 and marked = 5 in
  let sv =
    Sim.Statevector.run (Workloads.Builders.grover ~n ~marked ~iterations:2)
  in
  let p_marked = Complex.norm2 (amp sv marked) in
  Alcotest.(check bool)
    (Fmt.str "P(marked) = %.3f >> 1/8" p_marked)
    true (p_marked > 0.8)

let test_w_state () =
  let n = 5 in
  let sv = Sim.Statevector.run (Workloads.Builders.w_state n) in
  let expect = 1. /. float_of_int n in
  for k = 0 to n - 1 do
    Alcotest.(check (float 1e-9))
      (Fmt.str "P(one-hot %d)" k)
      expect
      (Complex.norm2 (amp sv (1 lsl k)))
  done

let test_qft_matches_dft () =
  (* [qft n] is the exact little-endian DFT: amp(y) = ω^{xy}/√N; without the
     reversal layer it is DFT∘R (bit-reversed input). *)
  let n = 3 in
  let size = 1 lsl n in
  let reverse_bits x =
    let r = ref 0 in
    for b = 0 to n - 1 do
      if x land (1 lsl b) <> 0 then r := !r lor (1 lsl (n - 1 - b))
    done;
    !r
  in
  let run_qft ~reversal x =
    let input =
      Qc.Circuit.make ~n_qubits:n
        (List.filteri (fun i _ -> x land (1 lsl i) <> 0)
           (List.init n (fun i -> Qc.Gate.x i)))
    in
    Sim.Statevector.run
      (Qc.Circuit.concat input (Workloads.Builders.qft ~reversal n))
  in
  let check_dft name sv f =
    let ok = ref true in
    for y = 0 to size - 1 do
      let phase =
        2. *. Float.pi *. float_of_int (f y) /. float_of_int size
      in
      let expected =
        {
          Complex.re = cos phase /. sqrt (float_of_int size);
          im = sin phase /. sqrt (float_of_int size);
        }
      in
      if not (complex_close (amp sv y) expected) then ok := false
    done;
    Alcotest.(check bool) name true !ok
  in
  let x = 3 in
  check_dft "exact DFT with reversal" (run_qft ~reversal:true x)
    (fun y -> x * y);
  check_dft "DFT∘R without reversal" (run_qft ~reversal:false x)
    (fun y -> reverse_bits x * y)

let test_phase_estimation () =
  (* phase 0.3125 = 5/16 is exactly representable with 4 counting qubits *)
  let counting = 4 in
  let sv =
    Sim.Statevector.run
      (Workloads.Builders.phase_estimation ~counting ~phase:0.3125)
  in
  (* counting register must read 5 (eigen qubit is bit [counting], set) *)
  let expected = 5 lor (1 lsl counting) in
  Alcotest.(check bool) "reads 5/16" true
    (Complex.norm2 (amp sv expected) > 0.99)

let test_simon_and_qaoa_shapes () =
  let s = Workloads.Builders.simon ~n:3 ~secret:0b101 in
  Alcotest.(check int) "simon width" 6 (Qc.Circuit.n_qubits s);
  let q = Workloads.Builders.qaoa_ring ~n:6 ~layers:2 in
  Alcotest.(check int) "qaoa width" 6 (Qc.Circuit.n_qubits q);
  (* 6 H + 2 layers × (6 rzz + 6 rx) *)
  Alcotest.(check int) "qaoa gates" 30 (Qc.Circuit.length q);
  let t = Workloads.Builders.toffoli_chain ~n:5 ~reps:2 in
  Alcotest.(check int) "toffoli chain gates" (2 * 3 * 15) (Qc.Circuit.length t)

let test_random_circuit_reproducible () =
  let mk () =
    Workloads.Builders.random_circuit ~n:8 ~gates:200 ~two_qubit_fraction:0.4
      ~seed:99
  in
  Alcotest.(check bool) "same seed, same circuit" true
    (Qc.Circuit.equal (mk ()) (mk ()));
  let other =
    Workloads.Builders.random_circuit ~n:8 ~gates:200 ~two_qubit_fraction:0.4
      ~seed:100
  in
  Alcotest.(check bool) "different seed differs" false
    (Qc.Circuit.equal (mk ()) other);
  let c = mk () in
  Alcotest.(check int) "gate count" 200 (Qc.Circuit.length c)

let test_builder_validation () =
  let rejects name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "bv too small" (fun () ->
      Workloads.Builders.bernstein_vazirani ~n:1 ~secret:0);
  rejects "grover bad marked" (fun () ->
      Workloads.Builders.grover ~n:3 ~marked:8 ~iterations:1);
  rejects "qaoa too small" (fun () -> Workloads.Builders.qaoa_ring ~n:2 ~layers:1);
  rejects "adder zero bits" (fun () -> Workloads.Builders.cuccaro_adder ~bits:0);
  rejects "w too small" (fun () -> Workloads.Builders.w_state 1)

(* ----------------------------------------------------------------- boolfn *)

let test_pprm_known () =
  (* parity of 2 bits = x0 XOR x1: monomials {x0} and {x1} *)
  Alcotest.(check (list int)) "parity" [ 1; 2 ]
    (Workloads.Boolfn.pprm ~n:2 (fun x ->
         (x land 1) lxor ((x lsr 1) land 1) = 1));
  (* AND = single monomial {x0 x1} *)
  Alcotest.(check (list int)) "and" [ 3 ]
    (Workloads.Boolfn.pprm ~n:2 (fun x -> x = 3));
  (* constant 1 = the empty monomial *)
  Alcotest.(check (list int)) "const" [ 0 ]
    (Workloads.Boolfn.pprm ~n:2 (fun _ -> true));
  (* OR = x0 + x1 + x0x1 *)
  Alcotest.(check (list int)) "or" [ 1; 2; 3 ]
    (Workloads.Boolfn.pprm ~n:2 (fun x -> x <> 0))

(* exhaustively check the synthesized circuit against the truth table:
   |x⟩|0⟩|0…⟩ must map to |x⟩|f(x)⟩|0…⟩ *)
let check_spec name (spec : Workloads.Boolfn.spec) =
  let circuit = Workloads.Boolfn.synthesize spec in
  let n = Qc.Circuit.n_qubits circuit in
  for x = 0 to (1 lsl spec.inputs) - 1 do
    let sv = Sim.Statevector.init n in
    Sim.Statevector.set_amplitude sv 0 Complex.zero;
    Sim.Statevector.set_amplitude sv x Complex.one;
    Sim.Statevector.apply_circuit sv circuit;
    let expected = x lor (spec.table x lsl spec.inputs) in
    Alcotest.(check bool)
      (Fmt.str "%s(%d) = %d" name x (spec.table x))
      true
      (Complex.norm (Complex.sub (amp sv expected) Complex.one) < 1e-7)
  done

let test_boolfn_synthesis () =
  List.iter (fun (name, spec) -> check_spec name spec)
    Workloads.Boolfn.all_named

let prop_boolfn_random =
  QCheck.Test.make ~count:25 ~name:"random truth tables synthesize correctly"
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, inputs) ->
      let rng = Random.State.make [| seed |] in
      let rows = Array.init (1 lsl inputs) (fun _ -> Random.State.int rng 4) in
      let spec = { Workloads.Boolfn.inputs; outputs = 2; table = (fun x -> rows.(x)) } in
      let circuit = Workloads.Boolfn.synthesize spec in
      let n = Qc.Circuit.n_qubits circuit in
      let ok = ref true in
      for x = 0 to (1 lsl inputs) - 1 do
        let sv = Sim.Statevector.init n in
        Sim.Statevector.set_amplitude sv 0 Complex.zero;
        Sim.Statevector.set_amplitude sv x Complex.one;
        Sim.Statevector.apply_circuit sv circuit;
        let expected = x lor (spec.table x lsl inputs) in
        if Complex.norm (Complex.sub (amp sv expected) Complex.one) > 1e-7 then
          ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ suite *)

let test_suite_inventory () =
  let all = Workloads.Suite.all in
  Alcotest.(check int) "71 benchmarks" 71 (List.length all);
  let names = List.map (fun (e : Workloads.Suite.entry) -> e.name) all in
  Alcotest.(check int) "unique names" 71
    (List.length (List.sort_uniq String.compare names));
  let thirty_six =
    List.filter (fun (e : Workloads.Suite.entry) -> e.n_qubits = 36) all
  in
  Alcotest.(check int) "exactly three 36-qubit programs" 3
    (List.length thirty_six);
  let max_small =
    List.fold_left
      (fun acc (e : Workloads.Suite.entry) ->
        if e.n_qubits < 36 then max acc e.n_qubits else acc)
      0 all
  in
  Alcotest.(check int) "all other programs fit IBM Q16" 16 max_small;
  let min_q =
    List.fold_left
      (fun acc (e : Workloads.Suite.entry) -> min acc e.n_qubits)
      99 all
  in
  Alcotest.(check int) "smallest has 3 qubits" 3 min_q;
  (* ascending order as plotted in Fig. 8 *)
  let rec ascending = function
    | (a : Workloads.Suite.entry) :: (b :: _ as rest) ->
      a.n_qubits <= b.n_qubits && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted by qubit count" true (ascending all)

let test_suite_fitting () =
  Alcotest.(check int) "68 fit on 16 qubits" 68
    (List.length (Workloads.Suite.fitting ~max_qubits:16));
  Alcotest.(check int) "all fit on 54" 71
    (List.length (Workloads.Suite.fitting ~max_qubits:54))

let test_suite_find_and_force () =
  (match Workloads.Suite.find "qft_8" with
  | Some e ->
    let c = Lazy.force e.circuit in
    Alcotest.(check int) "qft_8 width" 8 (Qc.Circuit.n_qubits c);
    Alcotest.(check int) "entry width agrees" e.n_qubits (Qc.Circuit.n_qubits c)
  | None -> Alcotest.fail "qft_8 missing");
  Alcotest.(check bool) "unknown" true (Workloads.Suite.find "nope" = None)

let test_suite_widths_agree () =
  (* entry.n_qubits must match the built circuit for all small entries *)
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      if e.n_qubits <= 12 && e.name <> "rand_16_30k" then
        Alcotest.(check int) (e.name ^ " width") e.n_qubits
          (Qc.Circuit.n_qubits (Lazy.force e.circuit)))
    Workloads.Suite.all

let test_big_benchmark_size () =
  match Workloads.Suite.find "rand_16_30k" with
  | Some e ->
    Alcotest.(check int) "30000 gates" 30000
      (Qc.Circuit.length (Lazy.force e.circuit))
  | None -> Alcotest.fail "rand_16_30k missing"

(* ------------------------------------------------------------- large tier *)

let test_large_tier_inventory () =
  let large = Workloads.Suite.large in
  Alcotest.(check int) "six large benchmarks" 6 (List.length large);
  (* [all] must stay the paper's pinned 71-benchmark envelope: the large
     tier is a separate list, not an extension *)
  Alcotest.(check int) "all still 71" 71 (List.length Workloads.Suite.all);
  let names = List.map (fun (e : Workloads.Suite.entry) -> e.name) large in
  Alcotest.(check int) "unique names" 6
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      Alcotest.(check bool)
        (e.name ^ ": at least 64 qubits")
        true (e.n_qubits >= 64);
      Alcotest.(check bool)
        (e.name ^ ": not in the pinned 71")
        true
        (not
           (List.exists
              (fun (x : Workloads.Suite.entry) -> x.name = e.name)
              Workloads.Suite.all)))
    large;
  let rec ascending = function
    | (a : Workloads.Suite.entry) :: (b :: _ as rest) ->
      a.n_qubits <= b.n_qubits && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted by qubit count" true (ascending large);
  (* fitting stays an [all]-only view: no large entry leaks in *)
  Alcotest.(check int) "fitting 128 = all" 71
    (List.length (Workloads.Suite.fitting ~max_qubits:128))

let test_large_tier_find () =
  (match Workloads.Suite.find "ghz_128" with
  | Some e -> Alcotest.(check int) "ghz_128 width" 128 e.n_qubits
  | None -> Alcotest.fail "ghz_128 missing");
  (match Workloads.Suite.find "rand_128_100k" with
  | Some e ->
    Alcotest.(check int) "rand_128_100k width" 128 e.n_qubits;
    Alcotest.(check int) "100k gates" 100_000
      (Qc.Circuit.length (Lazy.force e.circuit))
  | None -> Alcotest.fail "rand_128_100k missing");
  match Workloads.Suite.find "qft_64" with
  | Some e ->
    Alcotest.(check int) "qft_64 width" 64
      (Qc.Circuit.n_qubits (Lazy.force e.circuit))
  | None -> Alcotest.fail "qft_64 missing"

(* ------------------------------------------------------------- algorithms *)

let test_algorithms () =
  let all = Workloads.Algorithms.all in
  Alcotest.(check int) "seven famous algorithms" 7 (List.length all);
  List.iter
    (fun (a : Workloads.Algorithms.named) ->
      Alcotest.(check bool)
        (a.name ^ " fits a 3x3 grid")
        true
        (Qc.Circuit.n_qubits a.circuit <= 9))
    all;
  Alcotest.(check bool) "find" true (Workloads.Algorithms.find "qft_5" <> None)

(* The controlled phases are pi / 2^d for qubit distance d: computed
   through an integer shift they overflowed at d >= 62 (negative at 62,
   u1(inf) at 63), and the printed qft_64 did not parse. *)
let test_qft_64_angles () =
  let c = Workloads.Builders.qft 64 in
  let u1s =
    List.filter_map
      (function
        | Qc.Gate.One (Qc.Gate.U1 a, _) -> Some a
        | _ -> None)
      (Qc.Circuit.gates c)
  in
  Alcotest.(check bool) "every angle finite and non-zero" true
    (List.for_all (fun a -> Float.is_finite a && a <> 0.) u1s);
  (* each cphase is u1(t/2) . u1(-t/2) . u1(t/2): with every t positive,
     two thirds of the angles are *)
  let positive = List.length (List.filter (fun a -> a > 0.) u1s) in
  Alcotest.(check int) "every phase positive" (2 * List.length u1s / 3)
    positive;
  Alcotest.(check (float 0.)) "smallest phase" (Float.ldexp Float.pi (-64))
    (List.fold_left Float.min infinity (List.map Float.abs u1s));
  let text = Qasm.Printer.to_string c in
  Alcotest.(check bool) "printed qft_64 parses back" true
    (Qc.Circuit.equal c (Qasm.Parser.parse text))

let () =
  Alcotest.run "workloads"
    [
      ( "semantics",
        [
          Alcotest.test_case "ghz" `Quick test_ghz;
          Alcotest.test_case "bernstein-vazirani" `Quick test_bv_recovers_secret;
          Alcotest.test_case "deutsch-jozsa" `Quick test_dj;
          Alcotest.test_case "cuccaro adder" `Quick test_adder_adds;
          Alcotest.test_case "grover" `Quick test_grover_amplifies;
          Alcotest.test_case "w state" `Quick test_w_state;
          Alcotest.test_case "qft = dft" `Quick test_qft_matches_dft;
          Alcotest.test_case "qft_64 angles" `Quick test_qft_64_angles;
          Alcotest.test_case "phase estimation" `Quick test_phase_estimation;
          Alcotest.test_case "shapes" `Quick test_simon_and_qaoa_shapes;
          Alcotest.test_case "random reproducible" `Quick
            test_random_circuit_reproducible;
          Alcotest.test_case "validation" `Quick test_builder_validation;
        ] );
      ( "boolfn",
        [
          Alcotest.test_case "pprm" `Quick test_pprm_known;
          Alcotest.test_case "named functions" `Quick test_boolfn_synthesis;
          QCheck_alcotest.to_alcotest prop_boolfn_random;
        ] );
      ( "suite",
        [
          Alcotest.test_case "inventory" `Quick test_suite_inventory;
          Alcotest.test_case "fitting" `Quick test_suite_fitting;
          Alcotest.test_case "find/force" `Quick test_suite_find_and_force;
          Alcotest.test_case "widths agree" `Quick test_suite_widths_agree;
          Alcotest.test_case "30k gates" `Slow test_big_benchmark_size;
        ] );
      ( "large tier",
        [
          Alcotest.test_case "inventory" `Quick test_large_tier_inventory;
          Alcotest.test_case "find/force" `Slow test_large_tier_find;
        ] );
      ("algorithms", [ Alcotest.test_case "seven" `Quick test_algorithms ]);
    ]
