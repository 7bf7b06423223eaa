exception Lex_error of int * string

type kind =
  | K_eof
  | K_ident
  | K_number
  | K_pi
  | K_arrow
  | K_lparen
  | K_rparen
  | K_lbracket
  | K_rbracket
  | K_lbrace
  | K_rbrace
  | K_comma
  | K_semicolon
  | K_plus
  | K_minus
  | K_star
  | K_slash
  | K_string

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable kind : kind;
  mutable start : int;
  mutable stop : int;
  mutable tline : int;
  mutable int_value : int;
  value : float array;
}

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

let lower c =
  if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c

(* 2^53: every int below it is a float exactly, so float_of_int agrees
   with float_of_string on its digits *)
let exact_float_limit = 9007199254740992

(* A number spans digits, '.', 'e'/'E' and a sign right after an exponent
   marker. Digit-only text is read exactly, with no float in between;
   anything else must be a float literal. Its value goes to the unboxed
   [value] slot either way. *)
let scan_number t i =
  let src = t.src and n = String.length t.src in
  let j = ref i and v = ref 0 and digits_only = ref true in
  let continue_ = ref true in
  while !continue_ && !j < n do
    match String.unsafe_get src !j with
    | '0' .. '9' as c ->
      let d = Char.code c - 48 in
      if !v >= 0 then
        v := if !v > (max_int - d) / 10 then -1 else (!v * 10) + d;
      incr j
    | '.' | 'e' | 'E' ->
      digits_only := false;
      incr j
    | ('+' | '-') when (match src.[!j - 1] with 'e' | 'E' -> true | _ -> false)
      ->
      incr j
    | _ -> continue_ := false
  done;
  t.kind <- K_number;
  t.stop <- !j;
  if !digits_only then begin
    t.int_value <- !v;
    t.value.(0) <-
      (if !v >= 0 && !v < exact_float_limit then float_of_int !v
       else float_of_string (String.sub src i (!j - i)))
  end
  else begin
    let text = String.sub src i (!j - i) in
    match float_of_string text with
    | f ->
      t.int_value <- -2;
      t.value.(0) <- f
    | exception Failure _ -> raise (Lex_error (t.line, "bad number: " ^ text))
  end

(* past blanks, newlines and [//] comments, counting lines *)
let rec skip_blank t src n i =
  if i >= n then i
  else
    match String.unsafe_get src i with
    | '\n' ->
      t.line <- t.line + 1;
      skip_blank t src n (i + 1)
    | ' ' | '\t' | '\r' -> skip_blank t src n (i + 1)
    | '/' when i + 1 < n && String.unsafe_get src (i + 1) = '/' ->
      let j = ref (i + 2) in
      while !j < n && String.unsafe_get src !j <> '\n' do
        incr j
      done;
      skip_blank t src n !j
    | _ -> i

let single t k i =
  t.kind <- k;
  t.stop <- i + 1

let next t =
  let src = t.src in
  let n = String.length src in
  let i = skip_blank t src n t.pos in
  t.start <- i;
  t.tline <- t.line;
  if i >= n then begin
    t.kind <- K_eof;
    t.stop <- i
  end
  else begin
    match String.unsafe_get src i with
    | '-' when i + 1 < n && String.unsafe_get src (i + 1) = '>' ->
      t.kind <- K_arrow;
      t.stop <- i + 2
    | '(' -> single t K_lparen i
    | ')' -> single t K_rparen i
    | '[' -> single t K_lbracket i
    | ']' -> single t K_rbracket i
    | '{' -> single t K_lbrace i
    | '}' -> single t K_rbrace i
    | ',' -> single t K_comma i
    | ';' -> single t K_semicolon i
    | '+' -> single t K_plus i
    | '-' -> single t K_minus i
    | '*' -> single t K_star i
    | '/' -> single t K_slash i
    | '"' -> (
      (* no escapes; a newline inside does not advance the line count *)
      match String.index_from_opt src (i + 1) '"' with
      | Some close ->
        t.kind <- K_string;
        t.start <- i + 1;
        t.stop <- close
      | None -> raise (Lex_error (t.line, "unterminated string")))
    | c when is_digit c || (c = '.' && i + 1 < n && is_digit src.[i + 1]) ->
      scan_number t i
    | c when is_ident_start c ->
      let j = ref (i + 1) in
      while !j < n && is_ident_char (String.unsafe_get src !j) do
        incr j
      done;
      t.stop <- !j;
      t.kind <-
        (if
           !j - i = 2
           && lower (String.unsafe_get src i) = 'p'
           && lower (String.unsafe_get src (i + 1)) = 'i'
         then K_pi
         else K_ident)
    | c -> raise (Lex_error (t.line, Fmt.str "unexpected character %C" c))
  end;
  (* a string token's extent excludes its closing quote *)
  t.pos <- (if t.kind = K_string then t.stop + 1 else t.stop)

let create src =
  let t =
    {
      src;
      pos = 0;
      line = 1;
      kind = K_eof;
      start = 0;
      stop = 0;
      tline = 1;
      int_value = 0;
      value = [| 0. |];
    }
  in
  next t;
  t

let text t = String.sub t.src t.start (t.stop - t.start)
