(* Tests for the OpenQASM 2.0 front end: lexer, parser (including macro
   expansion and broadcast), printer, and a parse∘print round-trip
   property. *)

let circuit = Alcotest.testable Qc.Circuit.pp Qc.Circuit.equal
let gate = Alcotest.testable Qc.Gate.pp Qc.Gate.equal

(* ------------------------------------------------------------------ lexer *)

(* the tokens of [src] as (kind, text, line), read off the scanner *)
let scan src =
  let lx = Qasm.Lexer.create src in
  let rec go acc =
    if lx.Qasm.Lexer.kind = Qasm.Lexer.K_eof then List.rev acc
    else begin
      let tok = (lx.Qasm.Lexer.kind, Qasm.Lexer.text lx, lx.Qasm.Lexer.tline) in
      let number =
        if lx.Qasm.Lexer.kind = Qasm.Lexer.K_number then [ lx.Qasm.Lexer.value.(0) ]
        else []
      in
      Qasm.Lexer.next lx;
      go ((tok, number) :: acc)
    end
  in
  go []

let test_lexer_basics () =
  let toks = scan "cx q[0], q[1]; // comment\nrz(pi/2) q[0];" in
  Alcotest.(check int) "token count" 22 (List.length toks);
  (match toks with
  | ((Qasm.Lexer.K_ident, "cx", 1), _) :: _ -> ()
  | _ -> Alcotest.fail "first token");
  let (_, _, last_line), _ = List.nth toks (List.length toks - 1) in
  Alcotest.(check int) "line numbers advance" 2 last_line

let test_lexer_numbers () =
  let nums = List.concat_map snd (scan "1.5e-3 2 .25") in
  Alcotest.(check (list (float 1e-12))) "numbers" [ 0.0015; 2.; 0.25 ] nums

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (scan "h q[0]; @");
       false
     with Qasm.Lexer.Lex_error (1, _) -> true);
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (scan "include \"qelib");
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

(* [levels] gate macros, each applying the one before twice, over a body
   of [leaf], applied once at line 3: 2^levels copies of [leaf]. *)
let macro_nest ~leaf levels =
  let b = Buffer.create 64 in
  Buffer.add_string b "qreg q[1];\n";
  Printf.bprintf b "gate g0 a { %s }" leaf;
  for k = 1 to levels do
    Printf.bprintf b " gate g%d a { g%d a; g%d a; }" k (k - 1) (k - 1)
  done;
  Printf.bprintf b "\ng%d q[0];\n" levels;
  Buffer.contents b

(* A short text can name more work than any device runs: a register as
   wide as memory, broadcast or nested macros that double per level. The
   width is refused at the register, the expansion at the statement that
   passes [max_gates]. *)
let test_expansion_bounds () =
  let refused_at src =
    match parse src with
    | _ -> Alcotest.failf "accepted %S" src
    | exception Qasm.Parser.Parse_error (line, _) -> line
  in
  (match
     Qasm.Parser.parse ~max_qubits:20 "qreg a[4];\nqreg q[2000000];\nh q;"
   with
  | _ -> Alcotest.fail "wider than the device accepted"
  | exception Qasm.Parser.Too_wide { line; qubits; limit } ->
    Alcotest.(check (list int)) "at the qreg, with the width and the bound"
      [ 2; 2000004; 20 ] [ line; qubits; limit ]);
  Alcotest.(check int) "as wide as the device parses" 20
    (Qc.Circuit.n_qubits
       (Qasm.Parser.parse ~max_qubits:20 "qreg a[4];\nqreg q[16];\nh q;"));
  Alcotest.(check int) "broadcast past the bound" 2
    (refused_at "qreg q[2000000];\nh q;");
  Alcotest.(check int) "20 doubling macros" 3
    (refused_at (macro_nest ~leaf:"h a;" 20));
  Alcotest.(check int) "60 doubling empty macros" 3
    (refused_at (macro_nest ~leaf:"" 60));
  Alcotest.(check int) "a barrier on a huge register" 2
    (refused_at "qreg q[4611686018427387903];\nbarrier q;");
  Alcotest.(check int) "18 doubling macros parse" (1 lsl 18)
    (Qc.Circuit.length (parse (macro_nest ~leaf:"h a;" 18)))

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

(* ------------------------------------------- reference differential *)

(* The one-pass parser against the two-pass one kept verbatim in
   test/reference_qasm.ml: equal circuits on every text the old one
   accepted, a refusal wherever it refused — a circuit its constructor
   then refused included. The one-pass parser refuses more: a two- or
   three-qubit gate on a repeated qubit, an index or size past max_int
   (once wrapped to some other qubit) and a recursive gate macro (once a
   stack overflow); those texts are not run through the reference. *)

type outcome = Circuit of Qc.Circuit.t | Refused of string

let run_new text =
  match Qasm.Parser.parse text with
  | c -> Circuit c
  | exception Qasm.Parser.Parse_error (l, m) -> Refused (Fmt.str "%d: %s" l m)
  | exception Qasm.Lexer.Lex_error (l, m) -> Refused (Fmt.str "%d: %s" l m)

let run_reference text =
  match Reference_qasm.Parser.parse text with
  | c -> Circuit c
  | exception Reference_qasm.Parser.Parse_error (l, m) ->
    Refused (Fmt.str "%d: %s" l m)
  | exception Reference_qasm.Lexer.Lex_error (l, m) ->
    Refused (Fmt.str "%d: %s" l m)
  | exception Invalid_argument m -> Refused m

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let new_rejection msg =
  List.exists (contains_sub msg)
    [
      "applies to one qubit twice"; "integer too large"; "is too large";
      "gate definition is recursive";
    ]

let parsers_agree text =
  match run_new text with
  | Refused m when new_rejection m -> true
  | mine -> (
    match (mine, run_reference text) with
    | Circuit a, Circuit b ->
      Qc.Circuit.equal a b || QCheck.Test.fail_reportf "circuits differ"
    | Refused _, Refused _ -> true
    | Circuit _, Refused m ->
      QCheck.Test.fail_reportf "only the reference refused: %s" m
    | Refused m, Circuit _ -> QCheck.Test.fail_reportf "only the new parser refused: %s" m)

(* Texts in the shapes the printer never writes: macros with parameters,
   nesting and barriers in their bodies; register broadcast; whole-register
   barrier and measure; comments, odd spacing and braces; CX, U and pi in
   any case; expressions with unary minus, parentheses, .5 and 1e-3. *)
let qasm_text_gen st =
  let rnd k = Random.State.int st k in
  let pick a = a.(rnd (Array.length a)) in
  let b = Buffer.create 512 in
  let pr fmt = Printf.bprintf b fmt in
  let sep () = pick [| " "; "  "; "\t"; "\n"; " // note\n"; "\r\n" |] in
  if rnd 2 = 0 then pr "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  let nq = 2 + rnd 3 and nr = 1 + rnd 3 in
  pr "qreg q[%d];%sqreg r[%d];\ncreg c[%d];\n" nq (sep ()) nr nq;
  let rec expr d =
    if d = 0 then pick [| "pi"; "Pi"; "PI"; ".5"; "1e-3"; "2"; "0.25"; "3.0"; "1.5e2" |]
    else
      match rnd 6 with
      | 0 -> "-" ^ expr (d - 1)
      | 1 -> "(" ^ expr (d - 1) ^ ")"
      | 2 -> expr (d - 1) ^ "+" ^ expr (d - 1)
      | 3 -> expr (d - 1) ^ " - " ^ expr (d - 1)
      | 4 -> expr (d - 1) ^ "*" ^ expr (d - 1)
      | _ -> expr (d - 1) ^ "/(" ^ expr (d - 1) ^ "+7)"
  in
  let e () = expr (rnd 3) in
  let macros = rnd 4 in
  if macros >= 1 then
    pr "gate m0(a) x, y {%scx x, y;%srz(a/2) y; barrier x, y;\n}\n" (sep ())
      (sep ());
  if macros >= 2 then
    pr "gate m1(a,b) x,y{m0(a*b) y,x;U(a,b,-a) x;barrier x;h y;}\n";
  if macros >= 3 then pr "gate m2 x { h x; t x; }\n";
  let qi () = Printf.sprintf "q[%d]" (rnd nq) in
  let ri () = Printf.sprintf "r[%d]" (rnd nr) in
  let two_q () =
    let i = rnd nq in
    let j = (i + 1 + rnd (nq - 1)) mod nq in
    Printf.sprintf "q[%d],%sq[%d]" i (sep ()) j
  in
  for _ = 0 to 4 + rnd 16 do
    (match rnd 14 with
    | 0 -> pr "%s %s;" (pick [| "h"; "x"; "y"; "z"; "s"; "t"; "sdg"; "tdg"; "id"; "H" |]) (qi ())
    | 1 -> pr "%s(%s) %s;" (pick [| "rz"; "rx"; "ry"; "u1"; "p"; "RZ" |]) (e ()) (ri ())
    | 2 -> pr "u2(%s, %s) %s;" (e ()) (e ()) (qi ())
    | 3 -> pr "%s(%s,%s,%s) %s;" (pick [| "u3"; "U"; "u" |]) (e ()) (e ()) (e ()) (qi ())
    | 4 -> pr "%s %s;" (pick [| "cx"; "CX"; "cz"; "swap" |]) (two_q ())
    | 5 -> pr "%s(%s) %s, %s;" (pick [| "rzz"; "rxx"; "crz"; "cu1"; "cp" |]) (e ()) (qi ()) (ri ())
    | 6 -> pr "%s q[0], q[1], %s;" (pick [| "ccx"; "cswap" |]) (ri ())
    | 7 -> pr "%s;" (pick [| "h q"; "x r"; "cx q[0], r"; "barrier q"; "barrier q, r"; "barrier q[0], r" |])
    | 8 -> if nq = nr then pr "cx q, r;" else pr "cx r, q[0];"
    | 9 -> pr "measure %s -> c[%d];" (qi ()) (rnd nq)
    | 10 -> pr "measure q -> c;"
    | 11 when macros >= 1 -> pr "m0(%s) %s, %s;" (e ()) (qi ()) (ri ())
    | 12 when macros >= 2 -> pr "m1(%s, %s) %s;" (e ()) (e ()) (two_q ())
    | 13 when macros >= 3 -> pr "m2 %s;" (pick [| "q"; "r"; "q[0]" |])
    | _ -> pr "// nothing here\n");
    pr "%s" (sep ())
  done;
  Buffer.contents b

let printed_gen st =
  let cfg = Fuzz.Gen.sample_config st ~max_qubits:6 in
  Qasm.Printer.to_string (Fuzz.Gen.circuit_rng st cfg)

let mutate_gen text =
  let open QCheck.Gen in
  let n = String.length text in
  let byte =
    frequency
      [ (1, char);
        ( 3,
          oneofl
            [ ';'; ','; '['; ']'; '{'; '}'; '('; ')'; '0'; '1'; '9'; 'q'; 'c';
              'x'; 'e'; '.'; '-'; '>'; '/'; '"'; '\n'; ' '; '_' ] ) ]
  in
  int_range 0 n >>= fun i ->
  byte >>= fun c ->
  int_range 0 2 >|= fun op ->
  match op with
  | 0 -> String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i)
  | 1 when i < n -> String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | _ when i < n ->
    String.sub text 0 i ^ String.make 1 c ^ String.sub text (i + 1) (n - i - 1)
  | _ -> text ^ String.make 1 c

let text_arb gen = QCheck.make ~print:(Fmt.str "%S") gen

let prop_reference_generated =
  QCheck.Test.make ~count:500 ~name:"one-pass = reference on generated texts"
    (text_arb qasm_text_gen)
    (fun text ->
      (match run_new text with
      | Circuit _ -> ()
      | Refused m -> QCheck.Test.fail_reportf "refused: %s" m);
      parsers_agree text)

let prop_reference_printed =
  QCheck.Test.make ~count:300 ~name:"one-pass = reference on printed circuits"
    (text_arb printed_gen) parsers_agree

let prop_reference_mutated =
  QCheck.Test.make ~count:3000 ~name:"one-pass = reference on mutated texts"
    (text_arb
       QCheck.Gen.(
         frequency [ (2, qasm_text_gen); (1, printed_gen) ] >>= mutate_gen))
    parsers_agree

(* On any string the parser raises its two exceptions and nothing else. *)
let prop_total =
  let soup =
    QCheck.Gen.(
      list_size (int_range 0 40)
        (oneofl
           [ "qreg"; "creg"; "q"; "c"; "["; "]"; "2"; "0"; "1e30"; "1.0";
             "4611686018427387904"; ";"; ","; "gate"; "g"; "a"; "{"; "}"; "(";
             ")"; "cx"; "ccx"; "h"; "rz"; "pi"; "-"; "/"; "0/0"; "measure";
             "->"; "barrier"; "OPENQASM"; "include"; "\""; " "; "\n"; "//" ])
      >|= String.concat "")
  in
  QCheck.Test.make ~count:3000 ~name:"parse raises only Parse_error or Lex_error"
    (text_arb
       QCheck.Gen.(
         frequency
           [ (1, string_size ~gen:char (int_range 0 200)); (2, soup);
             (2, frequency [ (2, qasm_text_gen); (1, printed_gen) ] >>= mutate_gen) ]))
    (fun text ->
      match Qasm.Parser.parse text with
      | _ -> true
      | exception (Qasm.Parser.Parse_error _ | Qasm.Lexer.Lex_error _) -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* The rejections the two-pass parser lacked, each at its statement's
   line. *)
let test_new_rejections () =
  List.iter
    (fun (what, src) ->
      match parse src with
      | c -> Alcotest.failf "%s: accepted as %a" what Qc.Circuit.pp c
      | exception Qasm.Parser.Parse_error (line, _) ->
        Alcotest.(check int) (what ^ ": line") 2 line)
    [
      ("cx on one qubit", "qreg q[2];\ncx q[0],q[0];");
      ("ccx on one qubit twice", "qreg q[2];\nccx q[0],q[0],q[1];");
      ("cswap on one qubit twice", "qreg q[3];\ncswap q[0],q[1],q[1];");
      ("through a macro", "qreg q[2]; gate g a,b { cx a,b; }\ng q[1],q[1];");
      ("index past max_int", "qreg q[2];\nh q[4611686018427387904];");
      ("float index overflow", "qreg q[2];\nh q[1e30];");
      ("20-digit index", "qreg q[2];\nh q[18446744073709551616];");
      ("clbit overflow", "qreg q[2]; creg c[2];\nmeasure q[1] -> c[1e30];");
      ( "running width overflow",
        "qreg q[4000000000000000000];\nqreg r[4000000000000000000];" );
      ("recursive macro", "qreg q[1]; gate g a { g a; }\ng q[0];");
    ];
  (* an integral float index still reads as the integer *)
  Alcotest.check circuit "h q[1.0] is h q[1]"
    (Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 1 ])
    (parse "qreg q[2]; h q[1.0];");
  (* a macro on one qubit twice is fine when no gate in it is *)
  Alcotest.(check int) "one-qubit body on a repeated operand" 2
    (Qc.Circuit.length (parse "qreg q[1]; gate g a,b { h a; h b; } g q[0],q[0];"))

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
          Alcotest.test_case "new rejections" `Quick test_new_rejections;
          Alcotest.test_case "width and expansion bounds" `Quick
            test_expansion_bounds;
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
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_reference_generated;
          QCheck_alcotest.to_alcotest prop_reference_printed;
          QCheck_alcotest.to_alcotest prop_reference_mutated;
          QCheck_alcotest.to_alcotest prop_total;
        ] );
      ("corpus", [ Alcotest.test_case "sample files" `Quick test_corpus_parses ]);
    ]
