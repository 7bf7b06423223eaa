(* Tests for the OpenQASM 2.0 front end: lexer, parser (including macro
   expansion and broadcast), printer, and a parse∘print round-trip
   property. *)

let circuit = Alcotest.testable Qc.Circuit.pp Qc.Circuit.equal
let gate = Alcotest.testable Qc.Gate.pp Qc.Gate.equal

(* ------------------------------------------------------------------ lexer *)

let test_lexer_basics () =
  let toks = Qasm.Lexer.tokenize "cx q[0], q[1]; // comment\nrz(pi/2) q[0];" in
  Alcotest.(check int) "token count" 22 (List.length toks);
  (match toks with
  | { Qasm.Lexer.token = Qasm.Lexer.Ident "cx"; line = 1 } :: _ -> ()
  | _ -> Alcotest.fail "first token");
  let last = List.nth toks (List.length toks - 1) in
  Alcotest.(check int) "line numbers advance" 2 last.Qasm.Lexer.line

let test_lexer_numbers () =
  let toks = Qasm.Lexer.tokenize "1.5e-3 2 .25" in
  let nums =
    List.filter_map
      (fun t ->
        match t.Qasm.Lexer.token with
        | Qasm.Lexer.Number f -> Some f
        | _ -> None)
      toks
  in
  Alcotest.(check (list (float 1e-12))) "numbers" [ 0.0015; 2.; 0.25 ] nums

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Qasm.Lexer.tokenize "h q[0]; @");
       false
     with Qasm.Lexer.Lex_error (1, _) -> true);
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (Qasm.Lexer.tokenize "include \"qelib");
       false
     with Qasm.Lexer.Lex_error _ -> true)

(* ----------------------------------------------------------------- parser *)

let parse = Qasm.Parser.parse

let test_parse_minimal () =
  let c = parse "qreg q[2]; h q[0]; cx q[0], q[1];" in
  Alcotest.check circuit "minimal"
    (Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ])
    c

let test_parse_header () =
  let c = parse "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nx q[0];" in
  Alcotest.(check int) "one gate" 1 (Qc.Circuit.length c)

let test_parse_angles () =
  let c = parse "qreg q[1]; rz(pi/4) q[0]; u3(-pi/2, 0.5, 2*pi) q[0];" in
  match Qc.Circuit.gates c with
  | [ Qc.Gate.One (Qc.Gate.Rz a, 0); Qc.Gate.One (Qc.Gate.U3 (t, p, l), 0) ] ->
    Alcotest.(check (float 1e-12)) "pi/4" (Float.pi /. 4.) a;
    Alcotest.(check (float 1e-12)) "-pi/2" (-.Float.pi /. 2.) t;
    Alcotest.(check (float 1e-12)) "0.5" 0.5 p;
    Alcotest.(check (float 1e-12)) "2pi" (2. *. Float.pi) l
  | gates -> Alcotest.failf "unexpected gates: %d" (List.length gates)

let test_parse_expressions () =
  let c = parse "qreg q[1]; u1((1+2)*3 - 4/2) q[0];" in
  match Qc.Circuit.gates c with
  | [ Qc.Gate.One (Qc.Gate.U1 a, 0) ] ->
    Alcotest.(check (float 1e-12)) "arith" 7. a
  | _ -> Alcotest.fail "expected u1"

let test_parse_multiple_registers () =
  (* registers are flattened in declaration order *)
  let c = parse "qreg a[2]; qreg b[2]; cx a[1], b[0];" in
  Alcotest.check gate "offsets" (Qc.Gate.cx 1 2) (List.hd (Qc.Circuit.gates c));
  Alcotest.(check int) "total width" 4 (Qc.Circuit.n_qubits c)

let test_parse_broadcast () =
  let c = parse "qreg q[3]; h q;" in
  Alcotest.(check int) "h broadcast" 3 (Qc.Circuit.length c);
  let c = parse "qreg a[2]; qreg b[2]; cx a, b;" in
  Alcotest.(check (list string)) "pairwise cx" [ "cx"; "cx" ]
    (List.map Qc.Gate.name (Qc.Circuit.gates c));
  (match Qc.Circuit.gates c with
  | [ Qc.Gate.Two (Qc.Gate.CX, 0, 2); Qc.Gate.Two (Qc.Gate.CX, 1, 3) ] -> ()
  | _ -> Alcotest.fail "wrong broadcast expansion");
  (* scalar against register *)
  let c = parse "qreg a[1]; qreg b[3]; cx a[0], b;" in
  Alcotest.(check int) "scalar broadcast" 3 (Qc.Circuit.length c);
  Alcotest.(check bool) "size mismatch rejected" true
    (try
       ignore (parse "qreg a[2]; qreg b[3]; cx a, b;");
       false
     with Qasm.Parser.Parse_error _ -> true)

let test_parse_measure_barrier () =
  let c = parse "qreg q[2]; creg c[2]; barrier q; measure q -> c;" in
  match Qc.Circuit.gates c with
  | [ Qc.Gate.Barrier [ 0; 1 ]; Qc.Gate.Measure (0, 0); Qc.Gate.Measure (1, 1) ]
    ->
    ()
  | _ -> Alcotest.fail "wrong measure/barrier parse"

let test_parse_ccx_expanded () =
  let c = parse "qreg q[3]; ccx q[0], q[1], q[2];" in
  Alcotest.(check int) "toffoli expansion" 15 (Qc.Circuit.length c)

let test_parse_macro () =
  let src =
    "qreg q[3];\n\
     gate my_entangle(theta) a, b { h a; cx a, b; rz(theta) b; }\n\
     my_entangle(pi) q[0], q[2];"
  in
  let c = parse src in
  Alcotest.check circuit "macro expansion"
    (Qc.Circuit.make ~n_qubits:3
       [ Qc.Gate.h 0; Qc.Gate.cx 0 2; Qc.Gate.rz Float.pi 2 ])
    c

let test_parse_nested_macro () =
  let src =
    "qreg q[2];\n\
     gate base a { h a; }\n\
     gate outer a, b { base a; cx a, b; base b; }\n\
     outer q[0], q[1];"
  in
  let c = parse src in
  Alcotest.check circuit "nested macro"
    (Qc.Circuit.make ~n_qubits:2
       [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.h 1 ])
    c

let test_parse_errors () =
  let fails src =
    try
      ignore (parse src);
      false
    with Qasm.Parser.Parse_error _ -> true
  in
  Alcotest.(check bool) "unknown gate" true (fails "qreg q[1]; zap q[0];");
  Alcotest.(check bool) "unknown register" true (fails "h q[0];");
  Alcotest.(check bool) "index out of range" true (fails "qreg q[2]; h q[5];");
  Alcotest.(check bool) "duplicate qreg" true (fails "qreg q[1]; qreg q[2];");
  Alcotest.(check bool) "arity" true (fails "qreg q[2]; cx q[0];");
  Alcotest.(check bool) "param count" true (fails "qreg q[1]; rz q[0];");
  Alcotest.(check bool) "measure mismatch" true
    (fails "qreg q[2]; creg c[1]; measure q -> c;")

let test_parse_error_line () =
  try
    ignore (parse "qreg q[2];\nh q[0];\nzap q[1];");
    Alcotest.fail "expected failure"
  with Qasm.Parser.Parse_error (line, _) ->
    Alcotest.(check int) "error on line 3" 3 line

(* A NaN or infinite angle is refused at its statement's line, directly or
   through a macro: routed, it would print as [nan], which no reader takes
   back, and commute with everything in the matrix check. *)
let test_parse_non_finite () =
  let error_line src =
    match parse src with
    | _ -> Alcotest.failf "accepted %S" src
    | exception Qasm.Parser.Parse_error (line, _) -> line
  in
  List.iter
    (fun (what, src, line) ->
      Alcotest.(check int) what line (error_line src))
    [
      ("rz(0/0)", "qreg q[1];\nh q[0];\nrz(0/0) q[0];", 3);
      ("rz(1/0)", "qreg q[1];\nrz(1/0) q[0];", 2);
      ("u3 with -1/0", "qreg q[1];\nu3(0, -1/0, 0) q[0];", 2);
      ( "through a macro",
        "qreg q[1];\ngate g(a) x { rz(a/0) x; }\ng(0) q[0];",
        3 );
      ("literal overflow", "qreg q[1];\nrz(1e999) q[0];", 2);
    ];
  (* finite values built from large parts still parse *)
  Alcotest.(check int) "1/(1/0) is 0" 1
    (Qc.Circuit.length (parse "qreg q[1];\nrz(1/(1/0)) q[0];"))

let test_parse_unbound_param_line () =
  List.iter
    (fun (what, src, line) ->
      match parse src with
      | _ -> Alcotest.failf "accepted %S" src
      | exception Qasm.Parser.Parse_error (l, msg) ->
        Alcotest.(check int) what line l;
        Alcotest.(check bool) (what ^ ": message") true
          (String.starts_with ~prefix:"unbound parameter" msg))
    [
      ("top level", "qreg q[1];\nh q[0];\nrz(theta) q[0];", 3);
      ( "in a macro body",
        "qreg q[1];\ngate g(a) x { rz(b) x; }\nh q[0];\ng(1) q[0];",
        4 );
    ]

(* ---------------------------------------------------------------- printer *)

let test_printer_forms () =
  let check_gate g expected =
    Alcotest.(check string) expected expected (Fmt.str "%a" Qasm.Printer.pp_gate g)
  in
  check_gate (Qc.Gate.cx 0 1) "cx q[0], q[1];";
  check_gate (Qc.Gate.sdg 3) "sdg q[3];";
  check_gate (Qc.Gate.measure 2 1) "measure q[2] -> c[1];";
  check_gate (Qc.Gate.barrier [ 0; 2 ]) "barrier q[0], q[2];";
  check_gate (Qc.Gate.xx 0.5 0 1) "rxx(0.5) q[0], q[1];"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_printer_creg' () =
  let with_measure = Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.measure 0 3 ] in
  Alcotest.(check bool) "creg sized to max clbit" true
    (contains (Qasm.Printer.to_string with_measure) "creg c[4];");
  let no_measure = Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.h 0 ] in
  Alcotest.(check bool) "no creg without measure" false
    (contains (Qasm.Printer.to_string no_measure) "creg")

(* round trip: random circuits survive print+parse exactly *)
let circuit_gen =
  let open QCheck.Gen in
  let n = 4 in
  let angle = oneofl [ 0.25; -1.5; Float.pi /. 3.; 2.0 ] in
  let gate =
    let* q = int_range 0 (n - 1) in
    let* q2' = int_range 0 (n - 2) in
    let q2 = if q2' >= q then q2' + 1 else q2' in
    oneof
      [
        oneofl
          [ Qc.Gate.h q; Qc.Gate.x q; Qc.Gate.t q; Qc.Gate.sdg q; Qc.Gate.i q ];
        map (fun a -> Qc.Gate.rz a q) angle;
        map (fun a -> Qc.Gate.u2 a (a /. 2.) q) angle;
        map (fun a -> Qc.Gate.u3 a 0.1 (-.a) q) angle;
        return (Qc.Gate.cx q q2);
        return (Qc.Gate.cz q q2);
        return (Qc.Gate.swap q q2);
        map (fun a -> Qc.Gate.rzz a q q2) angle;
        map (fun a -> Qc.Gate.xx a q q2) angle;
        return (Qc.Gate.measure q q);
        return (Qc.Gate.barrier [ q ]);
      ]
  in
  let* gates = list_size (int_range 0 30) gate in
  return (Qc.Circuit.make ~n_qubits:n gates)

let circuit_arb =
  QCheck.make ~print:(Fmt.str "%a" Qc.Circuit.pp) circuit_gen

let prop_round_trip =
  QCheck.Test.make ~count:200 ~name:"print |> parse is the identity"
    circuit_arb
    (fun c ->
      let reparsed = Qasm.Parser.parse (Qasm.Printer.to_string c) in
      Qc.Circuit.equal c reparsed)

(* The same property driven by the fuzzing generator: full gate coverage
   with continuous uniform angles (every bit of the double must survive
   the %.17g print), plus byte-stability of a second print. *)
let test_round_trip_fuzz_gen () =
  for seed = 0 to 149 do
    let cfg =
      Fuzz.Gen.config ~n_qubits:(2 + (seed mod 5)) ~gates:25
        ~angles:Fuzz.Gen.Uniform ()
    in
    let c = Fuzz.Gen.circuit ~seed cfg in
    let printed = Qasm.Printer.to_string c in
    let reparsed = Qasm.Parser.parse printed in
    if not (Qc.Circuit.equal c reparsed) then
      Alcotest.failf "seed %d: print |> parse changed the circuit:@.%s" seed
        printed;
    let printed' = Qasm.Printer.to_string reparsed in
    if not (String.equal printed printed') then
      Alcotest.failf "seed %d: second print not byte-identical" seed
  done

let test_round_trip_edge_cases () =
  let rt c = Qasm.Parser.parse (Qasm.Printer.to_string c) in
  (* empty circuit: header only *)
  let empty = Qc.Circuit.empty 3 in
  Alcotest.(check bool) "empty circuit" true (Qc.Circuit.equal empty (rt empty));
  (* zero-width circuit: qreg q[0]; *)
  let zero = Qc.Circuit.empty 0 in
  Alcotest.(check bool) "zero-width circuit" true (Qc.Circuit.equal zero (rt zero));
  (* measure-only program *)
  let measures =
    Qc.Circuit.make ~n_qubits:4
      [ Qc.Gate.measure 3 0; Qc.Gate.measure 0 1; Qc.Gate.measure 1 2 ]
  in
  Alcotest.(check bool) "measure-only" true
    (Qc.Circuit.equal measures (rt measures));
  (* an empty barrier is Asap's global fence; it prints as the
     whole-register form and re-parses as a barrier on every qubit —
     the same fence, normalised *)
  let fence = Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.h 0; Qc.Gate.barrier [] ] in
  let expect =
    Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.h 0; Qc.Gate.barrier [ 0; 1; 2 ] ]
  in
  Alcotest.(check bool) "empty barrier normalises to all qubits" true
    (Qc.Circuit.equal expect (rt fence));
  (* and the normalised form is a fixpoint *)
  Alcotest.(check bool) "normalised fence round-trips" true
    (Qc.Circuit.equal expect (rt expect))

(* Multi-register inputs flatten into one register; from there,
   print |> parse must be idempotent even though the register names
   changed. *)
let test_multi_register_idempotent () =
  let src =
    "OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncreg m[2];\ncreg n[1];\n\
     h a[0];\ncx a[1], b[2];\nbarrier b;\nmeasure a[0] -> m[1];\n\
     measure b[0] -> n[0];\n"
  in
  let c = Qasm.Parser.parse src in
  Alcotest.(check int) "registers flattened" 5 (Qc.Circuit.n_qubits c);
  let once = Qasm.Printer.to_string c in
  let again = Qasm.Printer.to_string (Qasm.Parser.parse once) in
  Alcotest.(check string) "print |> parse |> print is stable" once again

(* ----------------------------------------------------------- file corpus *)

let corpus_candidates = [ "../examples/qasm"; "examples/qasm" ]

let test_corpus_parses () =
  match List.find_opt Sys.file_exists corpus_candidates with
  | None -> () (* corpus not visible from this cwd; covered by the example *)
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".qasm")
    in
    Alcotest.(check bool) "corpus is non-empty" true (files <> []);
    List.iter
      (fun f ->
        let c = Qasm.Parser.parse_file (Filename.concat dir f) in
        Alcotest.(check bool) (f ^ " has gates") true (Qc.Circuit.length c > 0);
        (* and survives a print/parse round trip *)
        let again = Qasm.Parser.parse (Qasm.Printer.to_string c) in
        Alcotest.(check bool) (f ^ " round-trips") true
          (Qc.Circuit.equal c again))
      files

let () =
  Alcotest.run "qasm"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "header" `Quick test_parse_header;
          Alcotest.test_case "angles" `Quick test_parse_angles;
          Alcotest.test_case "expressions" `Quick test_parse_expressions;
          Alcotest.test_case "registers" `Quick test_parse_multiple_registers;
          Alcotest.test_case "broadcast" `Quick test_parse_broadcast;
          Alcotest.test_case "measure/barrier" `Quick test_parse_measure_barrier;
          Alcotest.test_case "ccx" `Quick test_parse_ccx_expanded;
          Alcotest.test_case "macro" `Quick test_parse_macro;
          Alcotest.test_case "nested macro" `Quick test_parse_nested_macro;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error line" `Quick test_parse_error_line;
          Alcotest.test_case "non-finite parameter" `Quick
            test_parse_non_finite;
          Alcotest.test_case "unbound parameter line" `Quick
            test_parse_unbound_param_line;
        ] );
      ( "printer",
        [
          Alcotest.test_case "forms" `Quick test_printer_forms;
          Alcotest.test_case "creg" `Quick test_printer_creg';
          QCheck_alcotest.to_alcotest prop_round_trip;
          Alcotest.test_case "round-trip over fuzz generator" `Quick
            test_round_trip_fuzz_gen;
          Alcotest.test_case "round-trip edge cases" `Quick
            test_round_trip_edge_cases;
          Alcotest.test_case "multi-register idempotence" `Quick
            test_multi_register_idempotent;
        ] );
      ("corpus", [ Alcotest.test_case "sample files" `Quick test_corpus_parses ]);
    ]
