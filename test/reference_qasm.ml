(* The two-pass QASM front end, kept verbatim as a test-only reference: a
   lexer that conses every token into a list, and a parser that walks the
   list after turning braces into sentinel identifiers. test_qasm.ml
   asserts that Qasm.Parser accepts and rejects the same texts and builds
   equal circuits, apart from the rejections the one-pass parser added.
   Do not modernise this file — its value is that it does not change. *)

module Lexer = struct
  type token =
    | Ident of string
    | Number of float
    | Pi
    | Arrow
    | LParen
    | RParen
    | LBracket
    | RBracket
    | Comma
    | Semicolon
    | Plus
    | Minus
    | Star
    | Slash
    | String of string

  type located = { token : token; line : int }

  exception Lex_error of int * string

  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

  let is_digit c = c >= '0' && c <= '9'

  let tokenize src =
    let n = String.length src in
    let line = ref 1 in
    let out = ref [] in
    let emit t = out := { token = t; line = !line } :: !out in
    let rec go i =
      if i >= n then ()
      else
        match src.[i] with
        | '\n' ->
          incr line;
          go (i + 1)
        | ' ' | '\t' | '\r' -> go (i + 1)
        | '/' when i + 1 < n && src.[i + 1] = '/' ->
          let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
          go (skip (i + 2))
        | '-' when i + 1 < n && src.[i + 1] = '>' ->
          emit Arrow;
          go (i + 2)
        | '(' -> emit LParen; go (i + 1)
        | ')' -> emit RParen; go (i + 1)
        | '[' -> emit LBracket; go (i + 1)
        | ']' -> emit RBracket; go (i + 1)
        | ',' -> emit Comma; go (i + 1)
        | ';' -> emit Semicolon; go (i + 1)
        | '+' -> emit Plus; go (i + 1)
        | '-' -> emit Minus; go (i + 1)
        | '*' -> emit Star; go (i + 1)
        | '/' -> emit Slash; go (i + 1)
        | '"' ->
          let rec find j =
            if j >= n then raise (Lex_error (!line, "unterminated string"))
            else if src.[j] = '"' then j
            else find (j + 1)
          in
          let close = find (i + 1) in
          emit (String (String.sub src (i + 1) (close - i - 1)));
          go (close + 1)
        | c when is_digit c || (c = '.' && i + 1 < n && is_digit src.[i + 1]) ->
          let rec scan j =
            if
              j < n
              && (is_digit src.[j] || src.[j] = '.' || src.[j] = 'e'
                 || src.[j] = 'E'
                 || ((src.[j] = '+' || src.[j] = '-')
                    && (src.[j - 1] = 'e' || src.[j - 1] = 'E')))
            then scan (j + 1)
            else j
          in
          let stop = scan i in
          let text = String.sub src i (stop - i) in
          (match float_of_string_opt text with
          | Some f -> emit (Number f)
          | None -> raise (Lex_error (!line, "bad number: " ^ text)));
          go stop
        | c when is_ident_start c ->
          let rec scan j = if j < n && is_ident_char src.[j] then scan (j + 1) else j in
          let stop = scan i in
          let text = String.sub src i (stop - i) in
          (match String.lowercase_ascii text with
          | "pi" -> emit Pi
          | _ -> emit (Ident text));
          go stop
        | c -> raise (Lex_error (!line, Fmt.str "unexpected character %C" c))
    in
    go 0;
    List.rev !out
end

module Parser = struct
  exception Parse_error of int * string

  type expr =
    | Num of float
    | Pi
    | Var of string
    | Neg of expr
    | Add of expr * expr
    | Sub of expr * expr
    | Mul of expr * expr
    | Div of expr * expr

  (* A statement inside a gate-macro body: gate name, parameter expressions,
     formal qubit arguments. *)
  type macro_stmt = { m_name : string; m_params : expr list; m_qargs : string list }

  type macro = { formals : string list; qformals : string list; body : macro_stmt list }

  type operand = Indexed of string * int | Whole of string

  type state = {
    mutable toks : Lexer.located list;
    qregs : (string, int * int) Hashtbl.t;  (* name -> offset, size *)
    cregs : (string, int * int) Hashtbl.t;
    macros : (string, macro) Hashtbl.t;
    mutable n_qubits : int;
    mutable n_clbits : int;
    mutable gates_rev : Qc.Gate.t list;
    mutable stmt_line : int;  (* line of the statement being elaborated *)
  }

  let line st = match st.toks with { Lexer.line; _ } :: _ -> line | [] -> 0

  let fail st msg = raise (Parse_error (line st, msg))

  (* semantic errors surface after the statement's tokens are consumed; report
     them at the statement's own line *)
  let fail_stmt st msg = raise (Parse_error (st.stmt_line, msg))

  let peek st = match st.toks with t :: _ -> Some t.Lexer.token | [] -> None

  let next st =
    match st.toks with
    | t :: rest ->
      st.toks <- rest;
      t.Lexer.token
    | [] -> raise (Parse_error (0, "unexpected end of input"))

  let expect st tok what =
    let got = next st in
    if got <> tok then fail st ("expected " ^ what)

  let ident st =
    match next st with
    | Lexer.Ident s -> s
    | Lexer.Number _ | Lexer.Pi | Lexer.Arrow | Lexer.LParen | Lexer.RParen
    | Lexer.LBracket | Lexer.RBracket | Lexer.Comma | Lexer.Semicolon
    | Lexer.Plus | Lexer.Minus | Lexer.Star | Lexer.Slash | Lexer.String _ ->
      fail st "expected identifier"

  let integer st =
    match next st with
    | Lexer.Number f when Float.is_integer f && f >= 0. -> int_of_float f
    | Lexer.Number _ -> fail st "expected non-negative integer"
    | Lexer.Ident _ | Lexer.Pi | Lexer.Arrow | Lexer.LParen | Lexer.RParen
    | Lexer.LBracket | Lexer.RBracket | Lexer.Comma | Lexer.Semicolon
    | Lexer.Plus | Lexer.Minus | Lexer.Star | Lexer.Slash | Lexer.String _ ->
      fail st "expected integer"

  (* --- expressions ------------------------------------------------------ *)

  let rec parse_expr st =
    let lhs = parse_term st in
    let rec loop lhs =
      match peek st with
      | Some Lexer.Plus ->
        ignore (next st);
        loop (Add (lhs, parse_term st))
      | Some Lexer.Minus ->
        ignore (next st);
        loop (Sub (lhs, parse_term st))
      | Some
          ( Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow
          | Lexer.LParen | Lexer.RParen | Lexer.LBracket | Lexer.RBracket
          | Lexer.Comma | Lexer.Semicolon | Lexer.Star | Lexer.Slash
          | Lexer.String _ )
      | None ->
        lhs
    in
    loop lhs

  and parse_term st =
    let lhs = parse_factor st in
    let rec loop lhs =
      match peek st with
      | Some Lexer.Star ->
        ignore (next st);
        loop (Mul (lhs, parse_factor st))
      | Some Lexer.Slash ->
        ignore (next st);
        loop (Div (lhs, parse_factor st))
      | Some
          ( Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow
          | Lexer.LParen | Lexer.RParen | Lexer.LBracket | Lexer.RBracket
          | Lexer.Comma | Lexer.Semicolon | Lexer.Plus | Lexer.Minus
          | Lexer.String _ )
      | None ->
        lhs
    in
    loop lhs

  and parse_factor st =
    match next st with
    | Lexer.Minus -> Neg (parse_factor st)
    | Lexer.Number f -> Num f
    | Lexer.Pi -> Pi
    | Lexer.Ident v -> Var v
    | Lexer.LParen ->
      let e = parse_expr st in
      expect st Lexer.RParen ")";
      e
    | Lexer.Arrow | Lexer.RParen | Lexer.LBracket | Lexer.RBracket
    | Lexer.Comma | Lexer.Semicolon | Lexer.Plus | Lexer.Star | Lexer.Slash
    | Lexer.String _ ->
      fail st "expected expression"

  let rec eval st env = function
    | Num f -> f
    | Pi -> Float.pi
    | Var v -> (
      match List.assoc_opt v env with
      | Some f -> f
      | None -> fail_stmt st ("unbound parameter " ^ v))
    | Neg e -> -.eval st env e
    | Add (a, b) -> eval st env a +. eval st env b
    | Sub (a, b) -> eval st env a -. eval st env b
    | Mul (a, b) -> eval st env a *. eval st env b
    | Div (a, b) -> eval st env a /. eval st env b

  (* A gate parameter's value. NaN and infinities (say [0/0], [1/0]) are
     refused here: no gate means anything with them, and the printer would
     write them as [nan]/[inf], which no reader accepts back. *)
  let param st env e =
    let f = eval st env e in
    if Float.is_finite f then f
    else
      fail_stmt st
        (if Float.is_nan f then "gate parameter is NaN"
         else "gate parameter is infinite")

  (* --- built-in gate applications --------------------------------------- *)

  let builtin st name params qubits =
    let p i = List.nth params i in
    let q i = List.nth qubits i in
    let arity_check n_p n_q =
      if List.length params <> n_p then
        fail_stmt st (Fmt.str "%s expects %d parameter(s)" name n_p);
      if List.length qubits <> n_q then
        fail_stmt st (Fmt.str "%s expects %d qubit(s)" name n_q)
    in
    match String.lowercase_ascii name with
    | "id" -> arity_check 0 1; Some [ Qc.Gate.i (q 0) ]
    | "x" -> arity_check 0 1; Some [ Qc.Gate.x (q 0) ]
    | "y" -> arity_check 0 1; Some [ Qc.Gate.y (q 0) ]
    | "z" -> arity_check 0 1; Some [ Qc.Gate.z (q 0) ]
    | "h" -> arity_check 0 1; Some [ Qc.Gate.h (q 0) ]
    | "s" -> arity_check 0 1; Some [ Qc.Gate.s (q 0) ]
    | "sdg" -> arity_check 0 1; Some [ Qc.Gate.sdg (q 0) ]
    | "t" -> arity_check 0 1; Some [ Qc.Gate.t (q 0) ]
    | "tdg" -> arity_check 0 1; Some [ Qc.Gate.tdg (q 0) ]
    | "rx" -> arity_check 1 1; Some [ Qc.Gate.rx (p 0) (q 0) ]
    | "ry" -> arity_check 1 1; Some [ Qc.Gate.ry (p 0) (q 0) ]
    | "rz" -> arity_check 1 1; Some [ Qc.Gate.rz (p 0) (q 0) ]
    | "u1" | "p" -> arity_check 1 1; Some [ Qc.Gate.u1 (p 0) (q 0) ]
    | "u2" -> arity_check 2 1; Some [ Qc.Gate.u2 (p 0) (p 1) (q 0) ]
    | "u3" | "u" -> arity_check 3 1; Some [ Qc.Gate.u3 (p 0) (p 1) (p 2) (q 0) ]
    | "cx" -> arity_check 0 2; Some [ Qc.Gate.cx (q 0) (q 1) ]
    | "cz" -> arity_check 0 2; Some [ Qc.Gate.cz (q 0) (q 1) ]
    | "swap" -> arity_check 0 2; Some [ Qc.Gate.swap (q 0) (q 1) ]
    | "rzz" -> arity_check 1 2; Some [ Qc.Gate.rzz (p 0) (q 0) (q 1) ]
    | "rxx" | "xx" -> arity_check 1 2; Some [ Qc.Gate.xx (p 0) (q 0) (q 1) ]
    | "ccx" -> arity_check 0 3; Some (Qc.Decompose.toffoli (q 0) (q 1) (q 2))
    | "cswap" ->
      arity_check 0 3;
      Some (Qc.Decompose.controlled_swap (q 0) (q 1) (q 2))
    | "cu1" | "cp" ->
      arity_check 1 2;
      Some (Qc.Decompose.cphase (p 0) (q 0) (q 1))
    | "crz" ->
      arity_check 1 2;
      Some
        [
          Qc.Gate.rz (p 0 /. 2.) (q 1);
          Qc.Gate.cx (q 0) (q 1);
          Qc.Gate.rz (-.p 0 /. 2.) (q 1);
          Qc.Gate.cx (q 0) (q 1);
        ]
    | _ -> None

  (* --- gate application (built-in or macro, recursive expansion) -------- *)

  let rec apply_gate st name params qubits =
    match builtin st name params qubits with
    | Some gates -> List.iter (fun g -> st.gates_rev <- g :: st.gates_rev) gates
    | None -> (
      match Hashtbl.find_opt st.macros name with
      | None -> fail_stmt st ("unknown gate " ^ name)
      | Some m ->
        if List.length m.formals <> List.length params then
          fail_stmt st (name ^ ": parameter count mismatch");
        if List.length m.qformals <> List.length qubits then
          fail_stmt st (name ^ ": qubit count mismatch");
        let penv = List.combine m.formals params in
        let qenv = List.combine m.qformals qubits in
        List.iter
          (fun s ->
            let sub_params = List.map (param st penv) s.m_params in
            let sub_qubits =
              List.map
                (fun v ->
                  match List.assoc_opt v qenv with
                  | Some q -> q
                  | None -> fail_stmt st ("unbound qubit argument " ^ v))
                s.m_qargs
            in
            apply_gate st s.m_name sub_params sub_qubits)
          m.body)

  (* --- operands ---------------------------------------------------------- *)

  let parse_operand st =
    let name = ident st in
    match peek st with
    | Some Lexer.LBracket ->
      ignore (next st);
      let idx = integer st in
      expect st Lexer.RBracket "]";
      Indexed (name, idx)
    | Some
        ( Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow
        | Lexer.LParen | Lexer.RParen | Lexer.RBracket | Lexer.Comma
        | Lexer.Semicolon | Lexer.Plus | Lexer.Minus | Lexer.Star | Lexer.Slash
        | Lexer.String _ )
    | None ->
      Whole name

  let resolve_q st = function
    | Indexed (name, idx) -> (
      match Hashtbl.find_opt st.qregs name with
      | Some (off, size) when idx < size -> `Scalar (off + idx)
      | Some _ -> fail_stmt st (Fmt.str "index out of range for qreg %s" name)
      | None -> fail_stmt st ("unknown qreg " ^ name))
    | Whole name -> (
      match Hashtbl.find_opt st.qregs name with
      | Some (off, size) -> `Register (off, size)
      | None -> fail_stmt st ("unknown qreg " ^ name))

  let resolve_c st = function
    | Indexed (name, idx) -> (
      match Hashtbl.find_opt st.cregs name with
      | Some (off, size) when idx < size -> `Scalar (off + idx)
      | Some _ -> fail_stmt st (Fmt.str "index out of range for creg %s" name)
      | None -> fail_stmt st ("unknown creg " ^ name))
    | Whole name -> (
      match Hashtbl.find_opt st.cregs name with
      | Some (off, size) -> `Register (off, size)
      | None -> fail_stmt st ("unknown creg " ^ name))

  (* Broadcast a gate over operands: registers must share a size; scalars are
     repeated. *)
  let broadcast st resolved apply =
    let size =
      List.fold_left
        (fun acc r ->
          match (r, acc) with
          | `Scalar _, acc -> acc
          | `Register (_, s), None -> Some s
          | `Register (_, s), Some s' ->
            if s <> s' then fail_stmt st "register size mismatch in broadcast"
            else acc)
        None resolved
    in
    match size with
    | None ->
      apply
        (List.map
           (function `Scalar q -> q | `Register _ -> assert false)
           resolved)
    | Some s ->
      for k = 0 to s - 1 do
        apply
          (List.map
             (function `Scalar q -> q | `Register (off, _) -> off + k)
             resolved)
      done

  (* --- statements -------------------------------------------------------- *)

  let parse_params st =
    match peek st with
    | Some Lexer.LParen ->
      ignore (next st);
      let rec loop acc =
        let e = parse_expr st in
        match next st with
        | Lexer.Comma -> loop (e :: acc)
        | Lexer.RParen -> List.rev (e :: acc)
        | Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow
        | Lexer.LParen | Lexer.LBracket | Lexer.RBracket | Lexer.Semicolon
        | Lexer.Plus | Lexer.Minus | Lexer.Star | Lexer.Slash | Lexer.String _
          ->
          fail st "expected , or ) in parameter list"
      in
      loop []
    | Some
        ( Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow
        | Lexer.RParen | Lexer.LBracket | Lexer.RBracket | Lexer.Comma
        | Lexer.Semicolon | Lexer.Plus | Lexer.Minus | Lexer.Star | Lexer.Slash
        | Lexer.String _ )
    | None ->
      []

  let parse_operands st =
    let rec loop acc =
      let op = parse_operand st in
      match next st with
      | Lexer.Comma -> loop (op :: acc)
      | Lexer.Semicolon -> List.rev (op :: acc)
      | Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow | Lexer.LParen
      | Lexer.RParen | Lexer.LBracket | Lexer.RBracket | Lexer.Plus
      | Lexer.Minus | Lexer.Star | Lexer.Slash | Lexer.String _ ->
        fail st "expected , or ; after operand"
    in
    loop []

  (* gate-definition body statement list, between { and } — we only tokenize
     { } as idents? No: OpenQASM uses { }; the lexer has no brace token, so we
     treat gate bodies textually. Instead, braces are lexed as errors — so we
     handle them here by scanning tokens. *)

  let parse_macro_body st =
    (* statements: name(params)? qargs ; … until '}' — but '}' isn't a token;
       the lexer rejects it. See [preprocess_braces] below: braces are turned
       into sentinel idents. *)
    let rec loop acc =
      match peek st with
      | Some (Lexer.Ident "__rbrace__") ->
        ignore (next st);
        List.rev acc
      | Some (Lexer.Ident "barrier") ->
        (* barriers inside macros are ignored (qelib1 has none; some emitters
           add them) *)
        ignore (next st);
        let rec skip () =
          match next st with
          | Lexer.Semicolon -> ()
          | Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow
          | Lexer.LParen | Lexer.RParen | Lexer.LBracket | Lexer.RBracket
          | Lexer.Comma | Lexer.Plus | Lexer.Minus | Lexer.Star | Lexer.Slash
          | Lexer.String _ ->
            skip ()
        in
        skip ();
        loop acc
      | Some _ ->
        let m_name = ident st in
        let m_params = parse_params st in
        let rec qargs acc =
          let v = ident st in
          match next st with
          | Lexer.Comma -> qargs (v :: acc)
          | Lexer.Semicolon -> List.rev (v :: acc)
          | Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow
          | Lexer.LParen | Lexer.RParen | Lexer.LBracket | Lexer.RBracket
          | Lexer.Plus | Lexer.Minus | Lexer.Star | Lexer.Slash
          | Lexer.String _ ->
            fail st "expected , or ; in gate body"
        in
        let m_qargs = qargs [] in
        loop ({ m_name; m_params; m_qargs } :: acc)
      | None -> fail st "unterminated gate body"
    in
    loop []

  let parse_gate_def st =
    let name = ident st in
    let formals =
      match peek st with
      | Some Lexer.LParen ->
        ignore (next st);
        (match peek st with
        | Some Lexer.RParen ->
          ignore (next st);
          []
        | Some _ | None ->
          let rec loop acc =
            let v = ident st in
            match next st with
            | Lexer.Comma -> loop (v :: acc)
            | Lexer.RParen -> List.rev (v :: acc)
            | Lexer.Ident _ | Lexer.Number _ | Lexer.Pi | Lexer.Arrow
            | Lexer.LParen | Lexer.LBracket | Lexer.RBracket
            | Lexer.Semicolon | Lexer.Plus | Lexer.Minus | Lexer.Star
            | Lexer.Slash | Lexer.String _ ->
              fail st "expected , or ) in gate formals"
          in
          loop [])
      | Some _ | None -> []
    in
    let rec qformals acc =
      let v = ident st in
      match peek st with
      | Some Lexer.Comma ->
        ignore (next st);
        qformals (v :: acc)
      | Some (Lexer.Ident "__lbrace__") ->
        ignore (next st);
        List.rev (v :: acc)
      | Some _ | None -> fail st "expected { after gate header"
    in
    let qformals = qformals [] in
    let body = parse_macro_body st in
    Hashtbl.replace st.macros name { formals; qformals; body }

  let preprocess_braces src =
    (* the lexer has no brace tokens; replace them with sentinel identifiers *)
    String.concat " __lbrace__ "
      (String.split_on_char '{' src)
    |> String.split_on_char '}'
    |> String.concat " __rbrace__ "

  let rec parse_statement st =
    (match st.toks with
    | t :: _ -> st.stmt_line <- t.Lexer.line
    | [] -> ());
    match peek st with
    | None -> ()
    | Some (Lexer.Ident "OPENQASM") | Some (Lexer.Ident "openqasm") ->
      ignore (next st);
      ignore (next st);
      expect st Lexer.Semicolon ";";
      parse_statement st
    | Some (Lexer.Ident "include") ->
      ignore (next st);
      ignore (next st);
      expect st Lexer.Semicolon ";";
      parse_statement st
    | Some (Lexer.Ident "qreg") ->
      ignore (next st);
      let name = ident st in
      expect st Lexer.LBracket "[";
      let size = integer st in
      expect st Lexer.RBracket "]";
      expect st Lexer.Semicolon ";";
      if Hashtbl.mem st.qregs name then fail_stmt st ("duplicate qreg " ^ name);
      Hashtbl.replace st.qregs name (st.n_qubits, size);
      st.n_qubits <- st.n_qubits + size;
      parse_statement st
    | Some (Lexer.Ident "creg") ->
      ignore (next st);
      let name = ident st in
      expect st Lexer.LBracket "[";
      let size = integer st in
      expect st Lexer.RBracket "]";
      expect st Lexer.Semicolon ";";
      if Hashtbl.mem st.cregs name then fail_stmt st ("duplicate creg " ^ name);
      Hashtbl.replace st.cregs name (st.n_clbits, size);
      st.n_clbits <- st.n_clbits + size;
      parse_statement st
    | Some (Lexer.Ident "gate") ->
      ignore (next st);
      parse_gate_def st;
      parse_statement st
    | Some (Lexer.Ident "barrier") ->
      ignore (next st);
      let ops = parse_operands st in
      let resolved = List.map (resolve_q st) ops in
      let qubits =
        List.concat_map
          (function
            | `Scalar q -> [ q ]
            | `Register (off, size) -> List.init size (fun k -> off + k))
          resolved
      in
      st.gates_rev <- Qc.Gate.barrier qubits :: st.gates_rev;
      parse_statement st
    | Some (Lexer.Ident "measure") ->
      ignore (next st);
      let qop = parse_operand st in
      expect st Lexer.Arrow "->";
      let cop = parse_operand st in
      expect st Lexer.Semicolon ";";
      (match (resolve_q st qop, resolve_c st cop) with
      | `Scalar q, `Scalar c ->
        st.gates_rev <- Qc.Gate.measure q c :: st.gates_rev
      | `Register (qo, qs), `Register (co, cs) when qs = cs ->
        for k = 0 to qs - 1 do
          st.gates_rev <- Qc.Gate.measure (qo + k) (co + k) :: st.gates_rev
        done
      | (`Scalar _ | `Register _), (`Scalar _ | `Register _) ->
        fail_stmt st "measure operands must both be scalars or equal-size registers");
      parse_statement st
    | Some (Lexer.Ident _) ->
      let name = ident st in
      let params = List.map (param st []) (parse_params st) in
      let ops = parse_operands st in
      let resolved = List.map (resolve_q st) ops in
      broadcast st resolved (fun qubits -> apply_gate st name params qubits);
      parse_statement st
    | Some
        ( Lexer.Number _ | Lexer.Pi | Lexer.Arrow | Lexer.LParen | Lexer.RParen
        | Lexer.LBracket | Lexer.RBracket | Lexer.Comma | Lexer.Semicolon
        | Lexer.Plus | Lexer.Minus | Lexer.Star | Lexer.Slash | Lexer.String _
          ) ->
      fail st "expected statement"

  let parse src =
    let st =
      {
        toks = Lexer.tokenize (preprocess_braces src);
        qregs = Hashtbl.create 4;
        cregs = Hashtbl.create 4;
        macros = Hashtbl.create 16;
        n_qubits = 0;
        n_clbits = 0;
        gates_rev = [];
        stmt_line = 1;
      }
    in
    parse_statement st;
    Qc.Circuit.make ~n_qubits:st.n_qubits (List.rev st.gates_rev)

  let parse_file path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    parse src
end
