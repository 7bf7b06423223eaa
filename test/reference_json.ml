(* The char-at-a-time JSON decoder, kept verbatim as a test-only
   reference: [peek] boxes every character and strings are copied into a
   [Buffer] byte by byte. test_report.ml asserts that Report.Json.parse
   builds equal trees or fails at the same offset. Do not modernise this
   file — its value is that it does not change. *)

open Report.Json

exception Parse of int * string
(* position, message — internal; [parse] converts to a result *)

let parse_exn s =
  let n = String.length s in
  let fail pos msg = raise (Parse (pos, msg)) in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail !pos (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail !pos (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with Failure _ -> fail !pos "invalid \\u escape"
    in
    pos := !pos + 4;
    v
  in
  (* Decodes escapes; BMP \u escapes are re-encoded as UTF-8 so that
     emitter-escaped control characters round-trip to their raw bytes. *)
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail !pos "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents b
      | Some '\\' -> (
        advance ();
        match peek () with
        | None -> fail !pos "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            let v = parse_hex4 () in
            if v < 0x80 then Buffer.add_char b (Char.chr v)
            else if v < 0x800 then begin
              Buffer.add_char b (Char.chr (0xc0 lor (v lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (v land 0x3f)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xe0 lor (v lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((v lsr 6) land 0x3f)));
              Buffer.add_char b (Char.chr (0x80 lor (v land 0x3f)))
            end
          | c -> fail (!pos - 1) (Printf.sprintf "invalid escape \\%c" c));
          go ())
      | Some c when Char.code c < 0x20 ->
        fail !pos "raw control character in string"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_float =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
      || text = "-0"
    in
    if not is_float then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* out of int range: fall back to float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail start (Printf.sprintf "invalid number %S" text))
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail start (Printf.sprintf "invalid number %S" text)
  in
  (* Nesting is bounded so hostile input (e.g. 100k copies of '[') gets a
     typed parse error instead of a stack overflow; 256 is far beyond any
     document this library emits. *)
  let max_depth = 256 in
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some c -> fail !pos (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage after value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse (pos, msg) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" pos msg)

