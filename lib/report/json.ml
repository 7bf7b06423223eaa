type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* shortest representation that round-trips and still parses as a JSON
       number (%h or "inf" never escape this function) *)
    let s = Printf.sprintf "%.12g" f in
    if Float.of_string s = f then s else Printf.sprintf "%.17g" f

let to_buffer ?(indent = 2) b t =
  let pad level =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (level * indent) ' ')
    end
  in
  let rec go level = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          pad (level + 1);
          go (level + 1) item)
        items;
      pad level;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          pad (level + 1);
          escape b k;
          Buffer.add_string b (if indent > 0 then ": " else ":");
          go (level + 1) v)
        fields;
      pad level;
      Buffer.add_char b '}'
  in
  go 0 t

let to_string ?indent t =
  let b = Buffer.create 256 in
  to_buffer ?indent b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let output oc t =
  output_string oc (to_string t);
  output_char oc '\n'

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | String x, String y -> String.equal x y
  | List x, List y ->
    List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
         x y
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false

(* ---------------------------------------------------------------- parsing *)

exception Parse of int * string
(* position, message — internal; [parse] converts to a result *)

let fail pos msg = raise (Parse (pos, msg))

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* The value of the four hex digits at [i], which must all be there. *)
let hex4 s i =
  if i + 4 > String.length s then fail i "truncated \\u escape";
  let v = ref 0 in
  for k = i to i + 3 do
    let d = hex_digit (String.unsafe_get s k) in
    if d < 0 then fail i "invalid \\u escape";
    v := (!v lsl 4) lor d
  done;
  !v

let utf8_length v = if v < 0x80 then 1 else if v < 0x800 then 2 else 3

(* The string whose opening quote is at [s.[!pos - 1]]: returns its decoded
   bytes and leaves [pos] after its closing quote. A first scan finds the
   end, checks every escape and sizes the result; a string without
   escapes is then one [String.sub], any other is filled run by run into
   bytes of exactly its length. BMP [\u] escapes are re-encoded as UTF-8
   so that emitter-escaped control characters round-trip to their raw
   bytes. *)
let parse_string s pos =
  let i = !pos in
  let n = String.length s in
  let rec scan j len =
    if j >= n then fail j "unterminated string"
    else
      match String.unsafe_get s j with
      | '"' -> (j, len)
      | '\\' ->
        if j + 1 >= n then fail (j + 1) "unterminated escape"
        else begin
          match String.unsafe_get s (j + 1) with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
            scan (j + 2) (len + 1)
          | 'u' -> scan (j + 6) (len + utf8_length (hex4 s (j + 2)))
          | c -> fail (j + 1) (Printf.sprintf "invalid escape \\%c" c)
        end
      | c when Char.code c < 0x20 -> fail j "raw control character in string"
      | _ -> scan (j + 1) (len + 1)
  in
  let close, len = scan i 0 in
  pos := close + 1;
  if len = close - i then String.sub s i len
  else begin
    let b = Bytes.create len in
    let put o c =
      Bytes.unsafe_set b o c;
      o + 1
    in
    (* copy the run [j, k) and decode the escape at [k], until [close] *)
    let rec fill j o =
      if j < close then begin
        let k = ref j in
        while !k < close && String.unsafe_get s !k <> '\\' do
          incr k
        done;
        let k = !k in
        Bytes.blit_string s j b o (k - j);
        let o = o + (k - j) in
        if k < close then
          match String.unsafe_get s (k + 1) with
          | 'b' -> fill (k + 2) (put o '\b')
          | 'f' -> fill (k + 2) (put o '\012')
          | 'n' -> fill (k + 2) (put o '\n')
          | 'r' -> fill (k + 2) (put o '\r')
          | 't' -> fill (k + 2) (put o '\t')
          | 'u' ->
            let v = hex4 s (k + 2) in
            let o =
              if v < 0x80 then put o (Char.chr v)
              else if v < 0x800 then
                put (put o (Char.chr (0xc0 lor (v lsr 6))))
                  (Char.chr (0x80 lor (v land 0x3f)))
              else
                put
                  (put
                     (put o (Char.chr (0xe0 lor (v lsr 12))))
                     (Char.chr (0x80 lor ((v lsr 6) land 0x3f))))
                  (Char.chr (0x80 lor (v land 0x3f)))
            in
            fill (k + 6) o
          | c (* '"', '\\' or '/' *) -> fill (k + 2) (put o c)
      end
    in
    fill i 0;
    Bytes.unsafe_to_string b
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* the value of the digits in [s.[k .. stop - 1]], or -1 if any other
   character is there *)
let rec digits s k stop v =
  if k >= stop then v
  else
    match String.unsafe_get s k with
    | '0' .. '9' as c -> digits s (k + 1) stop ((v * 10) + Char.code c - 48)
    | _ -> -1

(* The number at [!pos]: the longest run of number characters. An
   integral literal in range is an [Int]; anything with [.], [e] or [E],
   and ["-0"], is a [Float]. A short run of digits is read in place. *)
let parse_number s pos =
  let i = !pos in
  let n = String.length s in
  let j = ref i in
  while !j < n && is_num_char (String.unsafe_get s !j) do
    incr j
  done;
  let stop = !j in
  pos := stop;
  let neg = String.unsafe_get s i = '-' in
  let first = if neg then i + 1 else i in
  (* 18 digits cannot overflow an int *)
  let short = stop > first && stop - first <= 18 in
  let v = if short then digits s first stop 0 else -1 in
  if v > 0 || (v = 0 && not neg) then Int (if neg then -v else v)
  else
    let text = String.sub s i (stop - i) in
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
        | None -> fail i (Printf.sprintf "invalid number %S" text))
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail i (Printf.sprintf "invalid number %S" text)

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if !pos >= n then
      fail !pos (Printf.sprintf "expected %C, found end of input" c)
    else
      let c' = String.unsafe_get s !pos in
      if c' = c then incr pos
      else fail !pos (Printf.sprintf "expected %C, found %C" c c')
  in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let string () =
    expect '"';
    parse_string s pos
  in
  (* Nesting is bounded so hostile input (e.g. 100k copies of '[') gets a
     typed parse error instead of a stack overflow; 256 is far beyond any
     document this library emits. *)
  let max_depth = 256 in
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    skip_ws ();
    if !pos >= n then fail !pos "unexpected end of input";
    match String.unsafe_get s !pos with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (string ())
    | '-' | '0' .. '9' -> parse_number s pos
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while at ',' do
          incr pos;
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while at ',' do
          incr pos;
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | c -> fail !pos (Printf.sprintf "unexpected character %C" c)
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

(* -------------------------------------------------------------- accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
