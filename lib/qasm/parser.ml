(* One pass over the source: the parser pulls tokens from [Lexer.t], which
   holds a single lookahead token in mutable fields. Each statement's
   gates wait in a reused array until the circuit's list takes them, in
   source order, one list cell per gate. Identifiers become strings only
   where a string is needed (register and macro names on first sight); a
   built-in gate name is matched in place, a gate statement's parameters
   are evaluated as they are read, and register operands resolve to
   qubit indices in reused int arrays.

   Braces read as the identifiers [__lbrace__] and [__rbrace__] wherever an
   identifier may stand, and those two identifiers read as braces. That
   is how texts have always parsed (braces were once rewritten into those
   names before lexing), so no text changes meaning. *)

exception Parse_error of int * string
exception Too_wide of { line : int; qubits : int; limit : int }

let max_gates = 1_000_000

module L = Lexer

type expr =
  | Num of float
  | Pi
  | Var of string
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type builtin =
  | B_id | B_x | B_y | B_z | B_h | B_s | B_sdg | B_t | B_tdg
  | B_rx | B_ry | B_rz | B_u1 | B_u2 | B_u3
  | B_cx | B_cz | B_swap | B_rzz | B_rxx
  | B_ccx | B_cswap | B_cu1 | B_crz
  | Other  (* not a built-in: a macro, or unknown *)

(* A statement inside a gate-macro body: gate name (its built-in, if it
   names one), parameter expressions, formal qubit arguments. *)
type macro_stmt = {
  m_name : string;
  m_builtin : builtin;
  m_params : expr list;
  m_qargs : string list;
}

type macro = {
  formals : string list;
  qformals : string list;
  body : macro_stmt list;
  mutable expanding : bool;  (* on the expansion stack: a re-entry recurses *)
}

(* the register a name last resolved to, so a repeated name is matched
   against the source bytes instead of being built and hashed *)
type reg = { mutable name : string; mutable off : int; mutable size : int }

(* How a gate application names its gate in messages: [Here] is the
   current statement's own name, read back from the source on error. *)
type gname = Here | Named of string

type state = {
  lx : L.t;
  qregs : (string, int * int) Hashtbl.t;  (* name -> offset, size *)
  cregs : (string, int * int) Hashtbl.t;
  macros : (string, macro) Hashtbl.t;
  mutable n_qubits : int;
  mutable n_clbits : int;
  max_qubits : int;  (* the device's width, or max_int *)
  mutable pending : Qc.Gate.t array;  (* the statement's gates *)
  mutable n_pending : int;
  mutable n_gates : int;  (* gates so far, a barrier once per qubit *)
  mutable n_applied : int;  (* gate-macro applications so far *)
  mutable stmt_line : int;  (* line of the statement being elaborated *)
  mutable name_start : int;  (* the statement's gate name, for [Here] *)
  mutable name_stop : int;
  qlast : reg;
  clast : reg;
  (* statement scratch: evaluated parameters, and above them the operands
     of the one being read; the first semantic error among them;
     resolved operands (offset, and size or -1 for one qubit); one
     broadcast instance's qubits *)
  mutable pbuf : float array;
  mutable var : string;  (* the parameter's last variable, or "" *)
  mutable param_error : string;  (* or "" *)
  mutable roff : int array;
  mutable rsize : int array;
  mutable qbuf : int array;
}

(* a syntax error is reported at the line of the token after the one that
   failed (0 at the end of input) *)
let fail st msg =
  raise
    (Parse_error ((if st.lx.L.kind = L.K_eof then 0 else st.lx.L.tline), msg))

(* semantic errors surface after the statement's tokens are consumed; report
   them at the statement's own line *)
let fail_stmt st msg = raise (Parse_error (st.stmt_line, msg))

let end_of_input () = raise (Parse_error (0, "unexpected end of input"))

(* [a], or twice its length when it has no slot [i] *)
let grow a i = if i < Array.length a then a else Array.append a a

(* consume the lookahead, whatever it is *)
let skip st =
  if st.lx.L.kind = L.K_eof then end_of_input ();
  L.next st.lx

let expect st k what =
  if st.lx.L.kind = L.K_eof then end_of_input ();
  let ok = st.lx.L.kind = k in
  L.next st.lx;
  if not ok then fail st ("expected " ^ what)

let ident st =
  let lx = st.lx in
  match lx.L.kind with
  | L.K_ident ->
    let s = L.text lx in
    L.next lx;
    s
  | L.K_lbrace ->
    L.next lx;
    "__lbrace__"
  | L.K_rbrace ->
    L.next lx;
    "__rbrace__"
  | L.K_eof -> end_of_input ()
  | L.K_number | L.K_pi | L.K_arrow | L.K_lparen | L.K_rparen | L.K_lbracket
  | L.K_rbracket | L.K_comma | L.K_semicolon | L.K_plus | L.K_minus
  | L.K_star | L.K_slash | L.K_string ->
    L.next lx;
    fail st "expected identifier"

let rec same_from src start w i =
  i >= String.length w
  || (String.unsafe_get src (start + i) = String.unsafe_get w i
     && same_from src start w (i + 1))

(* the source bytes from [start], lower-cased, begin with [w] *)
let rec lower_from src start w i =
  i >= String.length w
  || (L.lower (String.unsafe_get src (start + i)) = String.unsafe_get w i
     && lower_from src start w (i + 1))

(* the source bytes [start, stop) are [w] *)
let source_is lx start stop w =
  stop - start = String.length w && same_from lx.L.src start w 0

(* the lookahead is the identifier [w] *)
let at_word st w =
  st.lx.L.kind = L.K_ident && source_is st.lx st.lx.L.start st.lx.L.stop w

let at_lbrace st = st.lx.L.kind = L.K_lbrace || at_word st "__lbrace__"
let at_rbrace st = st.lx.L.kind = L.K_rbrace || at_word st "__rbrace__"

(* 2^62 as a float: every integral float below it converts exactly *)
let int_limit = 0x1p62

(* A register index or size: an exact non-negative integer that fits an
   int ([1.0] is 1; [1e30] and a 20-digit literal are refused). *)
let integer st =
  let lx = st.lx in
  match lx.L.kind with
  | L.K_number ->
    let v =
      if lx.L.int_value >= -1 then lx.L.int_value
      else
        let f = lx.L.value.(0) in
        if Float.is_integer f && f >= 0. then
          if f < int_limit then int_of_float f else -1
        else -2
    in
    L.next lx;
    if v = -2 then fail st "expected non-negative integer";
    if v = -1 then fail_stmt st "integer too large";
    v
  | L.K_eof -> end_of_input ()
  | L.K_ident | L.K_pi | L.K_arrow | L.K_lparen | L.K_rparen | L.K_lbracket
  | L.K_rbracket | L.K_lbrace | L.K_rbrace | L.K_comma | L.K_semicolon
  | L.K_plus | L.K_minus | L.K_star | L.K_slash | L.K_string ->
    L.next lx;
    fail st "expected integer"

(* --- expressions ------------------------------------------------------ *)

let rec parse_expr st = expr_rest st (parse_term st)

and expr_rest st lhs =
  match st.lx.L.kind with
  | L.K_plus ->
    L.next st.lx;
    expr_rest st (Add (lhs, parse_term st))
  | L.K_minus ->
    L.next st.lx;
    expr_rest st (Sub (lhs, parse_term st))
  | _ -> lhs

and parse_term st = term_rest st (parse_factor st)

and term_rest st lhs =
  match st.lx.L.kind with
  | L.K_star ->
    L.next st.lx;
    term_rest st (Mul (lhs, parse_factor st))
  | L.K_slash ->
    L.next st.lx;
    term_rest st (Div (lhs, parse_factor st))
  | _ -> lhs

and parse_factor st =
  let lx = st.lx in
  match lx.L.kind with
  | L.K_minus ->
    L.next lx;
    Neg (parse_factor st)
  | L.K_number ->
    let f = lx.L.value.(0) in
    L.next lx;
    Num f
  | L.K_pi ->
    L.next lx;
    Pi
  | L.K_ident | L.K_lbrace | L.K_rbrace -> Var (ident st)
  | L.K_lparen ->
    L.next lx;
    let e = parse_expr st in
    expect st L.K_rparen ")";
    e
  | L.K_eof -> end_of_input ()
  | L.K_arrow | L.K_rparen | L.K_lbracket | L.K_rbracket | L.K_comma
  | L.K_semicolon | L.K_plus | L.K_star | L.K_slash | L.K_string ->
    L.next lx;
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

let rec params_rest st acc =
  let e = parse_expr st in
  match st.lx.L.kind with
  | L.K_comma ->
    L.next st.lx;
    params_rest st (e :: acc)
  | L.K_rparen ->
    L.next st.lx;
    List.rev (e :: acc)
  | L.K_eof -> end_of_input ()
  | _ ->
    L.next st.lx;
    fail st "expected , or ) in parameter list"

(* [(e1, e2, …)] after a gate name in a macro body, or nothing *)
let parse_params st =
  if st.lx.L.kind <> L.K_lparen then []
  else begin
    L.next st.lx;
    params_rest st []
  end

(* A gate statement's parameters bind no variable, so they are evaluated
   as they are read, in the grammar above, with no expression tree: the
   expression read into slot [i] of [pbuf] leaves its value there, and
   the slots above [i] hold its operands meanwhile. A variable is unbound
   here; its name is kept until the parameter ends, the last one read
   standing, as the tree's evaluation meets the rightmost first. *)
let rec value st i =
  value_term st i;
  value_rest st i

and value_rest st i =
  match st.lx.L.kind with
  | L.K_plus ->
    L.next st.lx;
    value_term st (i + 1);
    st.pbuf.(i) <- st.pbuf.(i) +. st.pbuf.(i + 1);
    value_rest st i
  | L.K_minus ->
    L.next st.lx;
    value_term st (i + 1);
    st.pbuf.(i) <- st.pbuf.(i) -. st.pbuf.(i + 1);
    value_rest st i
  | _ -> ()

and value_term st i =
  value_factor st i;
  value_term_rest st i

and value_term_rest st i =
  match st.lx.L.kind with
  | L.K_star ->
    L.next st.lx;
    value_factor st (i + 1);
    st.pbuf.(i) <- st.pbuf.(i) *. st.pbuf.(i + 1);
    value_term_rest st i
  | L.K_slash ->
    L.next st.lx;
    value_factor st (i + 1);
    st.pbuf.(i) <- st.pbuf.(i) /. st.pbuf.(i + 1);
    value_term_rest st i
  | _ -> ()

and value_factor st i =
  let lx = st.lx in
  st.pbuf <- grow st.pbuf i;
  match lx.L.kind with
  | L.K_minus ->
    L.next lx;
    value_factor st i;
    st.pbuf.(i) <- -.st.pbuf.(i)
  | L.K_number ->
    st.pbuf.(i) <- lx.L.value.(0);
    L.next lx
  | L.K_pi ->
    L.next lx;
    st.pbuf.(i) <- Float.pi
  | L.K_ident | L.K_lbrace | L.K_rbrace ->
    st.var <- ident st;
    st.pbuf.(i) <- 0.
  | L.K_lparen ->
    L.next lx;
    value st i;
    expect st L.K_rparen ")"
  | L.K_eof -> end_of_input ()
  | L.K_arrow | L.K_rparen | L.K_lbracket | L.K_rbracket | L.K_comma
  | L.K_semicolon | L.K_plus | L.K_star | L.K_slash | L.K_string ->
    L.next lx;
    fail st "expected expression"

(* Parameter [i] ends: the statement's first semantic error is the first
   parameter's with a variable, or with a NaN or infinite value (see
   [param]). *)
let param_done st i =
  if st.param_error = "" then
    if st.var <> "" then st.param_error <- "unbound parameter " ^ st.var
    else
      let f = st.pbuf.(i) in
      if Float.is_nan f then st.param_error <- "gate parameter is NaN"
      else if not (Float.is_finite f) then
        st.param_error <- "gate parameter is infinite";
  st.var <- ""

let rec values_rest st i =
  value st i;
  param_done st i;
  match st.lx.L.kind with
  | L.K_comma ->
    L.next st.lx;
    values_rest st (i + 1)
  | L.K_rparen ->
    L.next st.lx;
    i + 1
  | L.K_eof -> end_of_input ()
  | _ ->
    L.next st.lx;
    fail st "expected , or ) in parameter list"

(* [(e1, e2, …)] after a gate name into [pbuf], refused after its [)] as
   an evaluation after the parse would refuse it; returns how many *)
let values st =
  if st.lx.L.kind <> L.K_lparen then 0
  else begin
    L.next st.lx;
    st.param_error <- "";
    let n = values_rest st 0 in
    if st.param_error <> "" then fail_stmt st st.param_error;
    n
  end

(* --- built-in gate applications --------------------------------------- *)

(* Built-in names are matched in any case, in place. *)
let ch src i k = L.lower (String.unsafe_get src (i + k))

let builtin_of src i len =
  match len with
  | 1 -> (
    match ch src i 0 with
    | 'x' -> B_x
    | 'y' -> B_y
    | 'z' -> B_z
    | 'h' -> B_h
    | 's' -> B_s
    | 't' -> B_t
    | 'p' -> B_u1
    | 'u' -> B_u3
    | _ -> Other)
  | 2 -> (
    match (ch src i 0, ch src i 1) with
    | 'i', 'd' -> B_id
    | 'r', 'x' -> B_rx
    | 'r', 'y' -> B_ry
    | 'r', 'z' -> B_rz
    | 'u', '1' -> B_u1
    | 'u', '2' -> B_u2
    | 'u', '3' -> B_u3
    | 'c', 'x' -> B_cx
    | 'c', 'z' -> B_cz
    | 'c', 'p' -> B_cu1
    | 'x', 'x' -> B_rxx
    | _ -> Other)
  | 3 -> (
    match (ch src i 0, ch src i 1, ch src i 2) with
    | 's', 'd', 'g' -> B_sdg
    | 't', 'd', 'g' -> B_tdg
    | 'r', 'z', 'z' -> B_rzz
    | 'r', 'x', 'x' -> B_rxx
    | 'c', 'c', 'x' -> B_ccx
    | 'c', 'u', '1' -> B_cu1
    | 'c', 'r', 'z' -> B_crz
    | _ -> Other)
  | 4 when lower_from src i "swap" 0 -> B_swap
  | 5 when lower_from src i "cswap" 0 -> B_cswap
  | _ -> Other

let name_of st = function
  | Here -> String.sub st.lx.L.src st.name_start (st.name_stop - st.name_start)
  | Named s -> s

let arity st gname np nq n_p n_q =
  if np <> n_p then
    fail_stmt st (Fmt.str "%s expects %d parameter(s)" (name_of st gname) n_p);
  if nq <> n_q then
    fail_stmt st (Fmt.str "%s expects %d qubit(s)" (name_of st gname) n_q)

(* a two- or three-qubit gate takes distinct qubits *)
let distinct st gname (q : int array) nq =
  if q.(0) = q.(1) || (nq = 3 && (q.(0) = q.(2) || q.(1) = q.(2))) then
    fail_stmt st (name_of st gname ^ " applies to one qubit twice")

(* [k] more gates, refused past [max_gates] *)
let spend st k =
  if k > max_gates - st.n_gates then
    fail_stmt st (Fmt.str "circuit expands past %d gates" max_gates);
  st.n_gates <- st.n_gates + k

(* [g] after the statement's gates so far *)
let pend st g =
  st.pending <- grow st.pending st.n_pending;
  st.pending.(st.n_pending) <- g;
  st.n_pending <- st.n_pending + 1

let push st g =
  spend st 1;
  pend st g
let push_all st gs = List.iter (push st) gs

(* arity, and distinct qubits, of a two- or three-qubit gate *)
let multi st gname np q nq n_p n_q =
  arity st gname np nq n_p n_q;
  distinct st gname q nq

let builtin st gname b (p : float array) np (q : int array) nq =
  match b with
  | B_id -> arity st gname np nq 0 1; push st (Qc.Gate.i q.(0))
  | B_x -> arity st gname np nq 0 1; push st (Qc.Gate.x q.(0))
  | B_y -> arity st gname np nq 0 1; push st (Qc.Gate.y q.(0))
  | B_z -> arity st gname np nq 0 1; push st (Qc.Gate.z q.(0))
  | B_h -> arity st gname np nq 0 1; push st (Qc.Gate.h q.(0))
  | B_s -> arity st gname np nq 0 1; push st (Qc.Gate.s q.(0))
  | B_sdg -> arity st gname np nq 0 1; push st (Qc.Gate.sdg q.(0))
  | B_t -> arity st gname np nq 0 1; push st (Qc.Gate.t q.(0))
  | B_tdg -> arity st gname np nq 0 1; push st (Qc.Gate.tdg q.(0))
  | B_rx -> arity st gname np nq 1 1; push st (Qc.Gate.rx p.(0) q.(0))
  | B_ry -> arity st gname np nq 1 1; push st (Qc.Gate.ry p.(0) q.(0))
  | B_rz -> arity st gname np nq 1 1; push st (Qc.Gate.rz p.(0) q.(0))
  | B_u1 -> arity st gname np nq 1 1; push st (Qc.Gate.u1 p.(0) q.(0))
  | B_u2 -> arity st gname np nq 2 1; push st (Qc.Gate.u2 p.(0) p.(1) q.(0))
  | B_u3 ->
    arity st gname np nq 3 1;
    push st (Qc.Gate.u3 p.(0) p.(1) p.(2) q.(0))
  | B_cx -> multi st gname np q nq 0 2; push st (Qc.Gate.cx q.(0) q.(1))
  | B_cz -> multi st gname np q nq 0 2; push st (Qc.Gate.cz q.(0) q.(1))
  | B_swap -> multi st gname np q nq 0 2; push st (Qc.Gate.swap q.(0) q.(1))
  | B_rzz -> multi st gname np q nq 1 2; push st (Qc.Gate.rzz p.(0) q.(0) q.(1))
  | B_rxx -> multi st gname np q nq 1 2; push st (Qc.Gate.xx p.(0) q.(0) q.(1))
  | B_ccx ->
    multi st gname np q nq 0 3;
    push_all st (Qc.Decompose.toffoli q.(0) q.(1) q.(2))
  | B_cswap ->
    multi st gname np q nq 0 3;
    push_all st (Qc.Decompose.controlled_swap q.(0) q.(1) q.(2))
  | B_cu1 ->
    multi st gname np q nq 1 2;
    push_all st (Qc.Decompose.cphase p.(0) q.(0) q.(1))
  | B_crz ->
    multi st gname np q nq 1 2;
    push_all st
      [
        Qc.Gate.rz (p.(0) /. 2.) q.(1);
        Qc.Gate.cx q.(0) q.(1);
        Qc.Gate.rz (-.p.(0) /. 2.) q.(1);
        Qc.Gate.cx q.(0) q.(1);
      ]
  | Other -> assert false

(* --- gate application (built-in or macro, recursive expansion) -------- *)

let rec apply st gname b p np q nq =
  if b <> Other then builtin st gname b p np q nq
  else
    let name = name_of st gname in
    match Hashtbl.find_opt st.macros name with
    | None -> fail_stmt st ("unknown gate " ^ name)
    | Some m ->
      if List.length m.formals <> np then
        fail_stmt st (name ^ ": parameter count mismatch");
      if List.length m.qformals <> nq then
        fail_stmt st (name ^ ": qubit count mismatch");
      if m.expanding then
        fail_stmt st (name ^ ": gate definition is recursive");
      (* an empty macro adds no gate, so applications have a bound too *)
      if st.n_applied >= max_gates then
        fail_stmt st
          (Fmt.str "gate macros expand past %d applications" max_gates);
      st.n_applied <- st.n_applied + 1;
      let penv = List.combine m.formals (List.init np (Array.get p)) in
      let qenv = List.combine m.qformals (List.init nq (Array.get q)) in
      m.expanding <- true;
      List.iter
        (fun s ->
          let sp = Array.of_list (List.map (param st penv) s.m_params) in
          let sq =
            Array.of_list
              (List.map
                 (fun v ->
                   match List.assoc_opt v qenv with
                   | Some q -> q
                   | None -> fail_stmt st ("unbound qubit argument " ^ v))
                 s.m_qargs)
          in
          apply st (Named s.m_name) s.m_builtin sp (Array.length sp) sq
            (Array.length sq))
        m.body;
      m.expanding <- false

(* --- operands ---------------------------------------------------------- *)

(* The register the lookahead identifier names, consuming it. *)
let register st ~quantum =
  let lx = st.lx in
  let last = if quantum then st.qlast else st.clast in
  if lx.L.kind = L.K_ident && source_is lx lx.L.start lx.L.stop last.name
  then begin
    L.next lx;
    last
  end
  else begin
    let name = ident st in
    match Hashtbl.find_opt (if quantum then st.qregs else st.cregs) name with
    | Some (off, size) ->
      last.name <- name;
      last.off <- off;
      last.size <- size;
      last
    | None ->
      fail_stmt st
        ((if quantum then "unknown qreg " else "unknown creg ") ^ name)
  end

(* [name] or [name[i]], resolved into operand slot [i] *)
let operand st ~quantum i =
  st.roff <- grow st.roff i;
  st.rsize <- grow st.rsize i;
  let r = register st ~quantum in
  if st.lx.L.kind = L.K_lbracket then begin
    L.next st.lx;
    let idx = integer st in
    expect st L.K_rbracket "]";
    if idx >= r.size then
      fail_stmt st
        (Fmt.str "index out of range for %s %s"
           (if quantum then "qreg" else "creg")
           r.name);
    st.roff.(i) <- r.off + idx;
    st.rsize.(i) <- -1
  end
  else begin
    st.roff.(i) <- r.off;
    st.rsize.(i) <- r.size
  end

(* [op, op, …;] into the operand slots from [i]; returns how many *)
let rec operands st i =
  operand st ~quantum:true i;
  match st.lx.L.kind with
  | L.K_comma ->
    L.next st.lx;
    operands st (i + 1)
  | L.K_semicolon ->
    L.next st.lx;
    i + 1
  | L.K_eof -> end_of_input ()
  | _ ->
    L.next st.lx;
    fail st "expected , or ; after operand"

(* --- statements -------------------------------------------------------- *)

(* A gate statement, broadcast over registers: registers must share a
   size; single qubits are repeated. *)
let gate_statement st =
  let lx = st.lx in
  let b =
    if lx.L.kind = L.K_ident then
      builtin_of lx.L.src lx.L.start (lx.L.stop - lx.L.start)
    else Other
  in
  let gname =
    if b <> Other then begin
      st.name_start <- lx.L.start;
      st.name_stop <- lx.L.stop;
      L.next lx;
      Here
    end
    else Named (ident st)
  in
  let np = values st in
  let nops = operands st 0 in
  let size = ref (-1) in
  for i = 0 to nops - 1 do
    let s = st.rsize.(i) in
    if s >= 0 then
      if !size < 0 then size := s
      else if s <> !size then fail_stmt st "register size mismatch in broadcast"
  done;
  if !size < 0 then apply st gname b st.pbuf np st.roff nops
  else begin
    st.qbuf <- grow st.qbuf nops;
    for k = 0 to !size - 1 do
      for i = 0 to nops - 1 do
        st.qbuf.(i) <-
          (if st.rsize.(i) < 0 then st.roff.(i) else st.roff.(i) + k)
      done;
      apply st gname b st.pbuf np st.qbuf nops
    done
  end

let barrier_statement st =
  let nops = operands st 0 in
  for i = 0 to nops - 1 do
    spend st (if st.rsize.(i) < 0 then 1 else st.rsize.(i))
  done;
  let qubits = ref [] in
  for i = nops - 1 downto 0 do
    if st.rsize.(i) < 0 then qubits := st.roff.(i) :: !qubits
    else
      for k = st.rsize.(i) - 1 downto 0 do
        qubits := (st.roff.(i) + k) :: !qubits
      done
  done;
  pend st (Qc.Gate.barrier !qubits)

let measure_statement st =
  operand st ~quantum:true 0;
  expect st L.K_arrow "->";
  operand st ~quantum:false 1;
  expect st L.K_semicolon ";";
  let qs = st.rsize.(0) and cs = st.rsize.(1) in
  if qs < 0 && cs < 0 then push st (Qc.Gate.measure st.roff.(0) st.roff.(1))
  else if qs >= 0 && qs = cs then
    for k = 0 to qs - 1 do
      push st (Qc.Gate.measure (st.roff.(0) + k) (st.roff.(1) + k))
    done
  else
    fail_stmt st
      "measure operands must both be scalars or equal-size registers"

let register_decl st ~quantum =
  let name = ident st in
  expect st L.K_lbracket "[";
  let size = integer st in
  expect st L.K_rbracket "]";
  expect st L.K_semicolon ";";
  let table = if quantum then st.qregs else st.cregs in
  let width = if quantum then st.n_qubits else st.n_clbits in
  let kind = if quantum then "qreg " else "creg " in
  if Hashtbl.mem table name then fail_stmt st ("duplicate " ^ kind ^ name);
  if size > max_int - width then fail_stmt st (kind ^ name ^ " is too large");
  if quantum && width + size > st.max_qubits then
    raise
      (Too_wide
         { line = st.stmt_line; qubits = width + size; limit = st.max_qubits });
  Hashtbl.replace table name (width, size);
  if quantum then st.n_qubits <- width + size else st.n_clbits <- width + size

(* a gate-macro body statement: name(params)? qargs ; *)
let macro_stmt st =
  let lx = st.lx in
  let m_builtin =
    if lx.L.kind = L.K_ident then
      builtin_of lx.L.src lx.L.start (lx.L.stop - lx.L.start)
    else Other
  in
  let m_name = ident st in
  let m_params = parse_params st in
  let rec qargs acc =
    let v = ident st in
    match lx.L.kind with
    | L.K_comma ->
      L.next lx;
      qargs (v :: acc)
    | L.K_semicolon ->
      L.next lx;
      List.rev (v :: acc)
    | L.K_eof -> end_of_input ()
    | _ ->
      L.next lx;
      fail st "expected , or ; in gate body"
  in
  { m_name; m_builtin; m_params; m_qargs = qargs [] }

let gate_def st =
  let lx = st.lx in
  let name = ident st in
  let formals =
    if lx.L.kind <> L.K_lparen then []
    else begin
      L.next lx;
      if lx.L.kind = L.K_rparen then begin
        L.next lx;
        []
      end
      else
        let rec loop acc =
          let v = ident st in
          match lx.L.kind with
          | L.K_comma ->
            L.next lx;
            loop (v :: acc)
          | L.K_rparen ->
            L.next lx;
            List.rev (v :: acc)
          | L.K_eof -> end_of_input ()
          | _ ->
            L.next lx;
            fail st "expected , or ) in gate formals"
        in
        loop []
    end
  in
  let rec qformals acc =
    let v = ident st in
    if lx.L.kind = L.K_comma then begin
      L.next lx;
      qformals (v :: acc)
    end
    else if at_lbrace st then begin
      L.next lx;
      List.rev (v :: acc)
    end
    else fail st "expected { after gate header"
  in
  let qformals = qformals [] in
  let rec body acc =
    if at_rbrace st then begin
      L.next lx;
      List.rev acc
    end
    else if at_word st "barrier" then begin
      (* barriers inside macros are ignored (qelib1 has none; some
         emitters add them) *)
      L.next lx;
      let rec to_semicolon () =
        let semicolon = lx.L.kind = L.K_semicolon in
        skip st;
        if not semicolon then to_semicolon ()
      in
      to_semicolon ();
      body acc
    end
    else if lx.L.kind = L.K_eof then fail st "unterminated gate body"
    else body (macro_stmt st :: acc)
  in
  let body = body [] in
  Hashtbl.replace st.macros name { formals; qformals; body; expanding = false }

(* One statement, its gates into [pending]; [false] at the end of input. *)
let statement st =
  let lx = st.lx in
  st.stmt_line <- lx.L.tline;
  match lx.L.kind with
  | L.K_eof -> false
  | L.K_ident ->
    (match lx.L.src.[lx.L.start] with
    | ('O' | 'o') when at_word st "OPENQASM" || at_word st "openqasm" ->
      L.next lx;
      skip st;
      expect st L.K_semicolon ";"
    | 'i' when at_word st "include" ->
      L.next lx;
      skip st;
      expect st L.K_semicolon ";"
    | 'q' when at_word st "qreg" ->
      L.next lx;
      register_decl st ~quantum:true
    | 'c' when at_word st "creg" ->
      L.next lx;
      register_decl st ~quantum:false
    | 'g' when at_word st "gate" ->
      L.next lx;
      gate_def st
    | 'b' when at_word st "barrier" ->
      L.next lx;
      barrier_statement st
    | 'm' when at_word st "measure" ->
      L.next lx;
      measure_statement st
    | _ -> gate_statement st);
    true
  | L.K_lbrace | L.K_rbrace ->
    gate_statement st;
    true
  | L.K_number | L.K_pi | L.K_arrow | L.K_lparen | L.K_rparen | L.K_lbracket
  | L.K_rbracket | L.K_comma | L.K_semicolon | L.K_plus | L.K_minus
  | L.K_star | L.K_slash | L.K_string ->
    fail st "expected statement"

(* The circuit's gates in source order, each consed once: the list takes
   a statement's gates from [pending] before the next statement is read. *)
let[@tail_mod_cons] rec gates st i =
  if i < st.n_pending then st.pending.(i) :: gates st (i + 1)
  else begin
    st.n_pending <- 0;
    if statement st then gates st 0 else []
  end

let parse ?(max_qubits = max_int) src =
  let st =
    {
      lx = L.create src;
      qregs = Hashtbl.create 4;
      cregs = Hashtbl.create 4;
      macros = Hashtbl.create 16;
      n_qubits = 0;
      n_clbits = 0;
      max_qubits;
      pending = Array.make 16 (Qc.Gate.barrier []);
      n_pending = 0;
      n_gates = 0;
      n_applied = 0;
      stmt_line = 1;
      name_start = 0;
      name_stop = 0;
      qlast = { name = ""; off = 0; size = 0 };
      clast = { name = ""; off = 0; size = 0 };
      pbuf = Array.make 4 0.;
      var = "";
      param_error = "";
      roff = Array.make 4 0;
      rsize = Array.make 4 0;
      qbuf = Array.make 4 0;
    }
  in
  let gates = gates st 0 in
  Qc.Circuit.make ~n_qubits:st.n_qubits gates

(* read to end of file, not to a length taken up front: a pipe has none *)
let parse_file ?max_qubits path =
  parse ?max_qubits (In_channel.with_open_bin path In_channel.input_all)
