(* Adversarial suite for the hand-rolled JSON layer and the record codec.

   The emitter feeds daemon replies and cache files, the parser reads them
   back; a single mis-escaped control character or a non-finite float
   leaking through would corrupt a persistence file and poison every
   session that loads it. So this suite attacks exactly those edges:
   control characters, NaN/infinity, \u escapes, numeric round-trips, and
   a QCheck property that [parse] inverts [to_string] for arbitrary
   values at both indentations. *)

module Json = Report.Json

let json_t = Alcotest.testable Json.pp Json.equal

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let parse_err s =
  match Json.parse s with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "parse %S should fail, got %a" s Json.pp v

(* --------------------------------------------------------------- emitter *)

let test_control_chars_escaped () =
  (* every byte below 0x20 must leave as an escape, never raw *)
  let s = String.init 32 Char.chr in
  let out = Json.to_string ~indent:0 (Json.String s) in
  String.iter
    (fun c ->
      if Char.code c < 0x20 then
        Alcotest.failf "raw control byte %#x in emitted string %S"
          (Char.code c) out)
    out;
  Alcotest.check json_t "all 32 control chars round-trip" (Json.String s)
    (parse_ok out)

let test_short_escapes () =
  Alcotest.(check string)
    "named escapes preferred over \\u form" "\"a\\nb\\tc\\rd\\\\e\\\"f\\u0001\""
    (Json.to_string ~indent:0 (Json.String "a\nb\tc\rd\\e\"f\x01"))

let test_non_finite_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Fmt.str "%h serialises as null" f)
        "null"
        (Json.to_string ~indent:0 (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_float_round_trip () =
  (* exact values survive text: the emitter prints shortest-exact *)
  List.iter
    (fun f ->
      let v = parse_ok (Json.to_string ~indent:0 (Json.Float f)) in
      match v with
      | Json.Float g ->
        Alcotest.(check bool)
          (Fmt.str "%h survives" f)
          true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | Json.Int i ->
        Alcotest.(check (float 0.)) "integral float" f (float_of_int i)
      | _ -> Alcotest.failf "float reparsed as %a" Json.pp v)
    [ 0.1; 1. /. 3.; 1e-300; 1.7976931348623157e308; 4e-324; -0.5 ]

(* ---------------------------------------------------------------- parser *)

let test_rejects_raw_control () = parse_err "\"a\nb\""
let test_rejects_trailing_garbage () = parse_err "{\"a\":1} x"
let test_rejects_unterminated () = parse_err "\"abc"
let test_rejects_bad_escape () = parse_err {|"\q"|}
let test_rejects_lone_value_garbage () = parse_err "tru"

(* a \u escape is exactly four hex digits: int_of_string once let
   "\u1_23" through as U+0123 *)
let test_rejects_loose_unicode () =
  List.iter parse_err
    [ {|"\u1_23"|}; {|"\u_123"|}; {|"\u12 3"|}; {|"\u+123"|}; {|"\u12"|};
      {|"\uzzzz"|} ]

(* hostile nesting must be a typed error, not a stack overflow *)
let test_depth_cap () =
  let deep n = String.make n '[' ^ "0" ^ String.make n ']' in
  (* comfortably deep documents still parse... *)
  (match Json.parse (deep 200) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth 200 should parse: %s" msg);
  (* ...but past the cap it's an error, even at bomb sizes *)
  parse_err (deep 257);
  parse_err (deep 100_000);
  let deep_obj n =
    let b = Buffer.create (8 * n) in
    for _ = 1 to n do
      Buffer.add_string b {|{"k":|}
    done;
    Buffer.add_string b "0";
    for _ = 1 to n do
      Buffer.add_char b '}'
    done;
    Buffer.contents b
  in
  (match Json.parse (deep_obj 200) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "object depth 200 should parse: %s" msg);
  parse_err (deep_obj 100_000)

let test_unicode_escapes () =
  (* BMP escapes decode to UTF-8 bytes: A, é, € *)
  Alcotest.check json_t "\\u down to UTF-8"
    (Json.String "A\xc3\xa9\xe2\x82\xac")
    (parse_ok "\"\\u0041\\u00e9\\u20ac\"")

let test_number_shapes () =
  Alcotest.check json_t "integral literal lexes Int" (Json.Int 42)
    (parse_ok "42");
  Alcotest.check json_t "negative Int" (Json.Int (-7)) (parse_ok "-7");
  Alcotest.check json_t "decimal lexes Float" (Json.Float 1.5)
    (parse_ok "1.5");
  Alcotest.check json_t "exponent lexes Float" (Json.Float 200.)
    (parse_ok "2e2");
  (* "-0" must stay a float or re-serialisation would turn it into "0" *)
  (match parse_ok "-0" with
  | Json.Float f ->
    Alcotest.(check bool) "-0 keeps its sign bit" true (1. /. f < 0.)
  | v -> Alcotest.failf "-0 parsed as %a" Json.pp v);
  parse_err "1e";
  parse_err "--1"

let test_field_order_significant () =
  let a = parse_ok {|{"x":1,"y":2}|} and b = parse_ok {|{"y":2,"x":1}|} in
  Alcotest.(check bool) "order matters for equal" false (Json.equal a b)

(* ------------------------------------------------- round-trip property *)

let json_gen =
  let open QCheck.Gen in
  (* strings biased towards the hostile range *)
  let hostile_char =
    frequency
      [ (2, char_range '\x00' '\x1f'); (1, return '"'); (1, return '\\');
        (6, printable) ]
  in
  let str = string_size ~gen:hostile_char (int_range 0 12) in
  let base =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Json.String s) str ]
  in
  let rec value n =
    if n = 0 then base
    else
      frequency
        [ (3, base);
          (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (value (n - 1))));
          ( 1,
            map
              (fun l -> Json.Obj l)
              (list_size (int_range 0 4) (pair str (value (n - 1)))) ) ]
  in
  value 3

let prop_round_trip indent =
  QCheck.Test.make ~count:500
    ~name:(Fmt.str "parse inverts to_string ~indent:%d" indent)
    (QCheck.make ~print:(Fmt.str "%a" Json.pp) json_gen)
    (fun v ->
      match Json.parse (Json.to_string ~indent v) with
      | Ok v' -> Json.equal v v'
      | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s" msg)

(* ------------------------------------------- reference differential *)

(* Full byte range in strings, so every escape path runs; trees printed
   at both indentations, then single-byte mutations of those texts. The
   scanning decoder and the char-at-a-time one kept in
   test/reference_json.ml must build equal trees or fail with the same
   message at the same offset — except that "\u" with anything but four
   hex digits is now refused where int_of_string let underscores by. *)
let any_json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 12) in
  let base =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun i -> Json.Int i) (int_range (-1000) 1000);
        map (fun f -> Json.Float f) float;
        map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Json.String s) str ]
  in
  let rec value n =
    if n = 0 then base
    else
      frequency
        [ (3, base);
          (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (value (n - 1))));
          ( 1,
            map
              (fun l -> Json.Obj l)
              (list_size (int_range 0 4) (pair str (value (n - 1)))) ) ]
  in
  value 3

let mutate_gen text =
  let open QCheck.Gen in
  let n = String.length text in
  let interesting =
    oneofl [ '"'; '\\'; 'u'; '0'; 'e'; '-'; '.'; '_'; '{'; '['; ','; ':'; ' ' ]
  in
  let byte = frequency [ (1, char); (1, interesting) ] in
  int_range 0 n >>= fun i ->
  byte >>= fun c ->
  int_range 0 2 >|= fun op ->
  match op with
  | 0 -> String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i)
  | 1 when i < n -> String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | _ when i < n -> String.sub text 0 i ^ String.make 1 c ^ String.sub text (i + 1) (n - i - 1)
  | _ -> text ^ String.make 1 c

(* the new decoder's only extra rejection: an escape "\u" whose four
   characters int_of_string read as hex with an underscore *)
let loose_unicode_at text msg =
  let prefix = "JSON error at offset " in
  String.starts_with ~prefix msg
  &&
  match String.index_from_opt msg (String.length prefix) ':' with
  | None -> false
  | Some colon -> (
    let off = String.sub msg (String.length prefix) (colon - String.length prefix) in
    match int_of_string_opt off with
    | Some i when i + 4 <= String.length text ->
      let four = String.sub text i 4 in
      String.contains four '_' && int_of_string_opt ("0x" ^ four) <> None
    | Some _ | None -> false)

let json_texts_gen =
  let open QCheck.Gen in
  any_json_gen >>= fun v ->
  int_range 0 1 >>= fun i ->
  let text = Json.to_string ~indent:(2 * i) v in
  frequency [ (1, return text); (3, mutate_gen text) ]

let prop_reference_json =
  QCheck.Test.make ~count:3000
    ~name:"scanning decoder = reference decoder (printed and mutated)"
    (QCheck.make ~print:(Fmt.str "%S") json_texts_gen)
    (fun text ->
      match (Json.parse text, Reference_json.parse text) with
      | Ok a, Ok b -> Json.equal a b || QCheck.Test.fail_reportf "trees differ"
      | Error a, Error b ->
        String.equal a b || QCheck.Test.fail_reportf "errors differ: %s / %s" a b
      | Error a, Ok _ when loose_unicode_at text a -> true
      | Ok _, Error b -> QCheck.Test.fail_reportf "only the reference refused: %s" b
      | Error a, Ok _ -> QCheck.Test.fail_reportf "only the new decoder refused: %s" a)

(* ----------------------------------------------------- record codec *)

let route_record bench =
  let req =
    {
      Service.Protocol.source = `Bench bench;
      arch = "tokyo";
      durations = "sc";
      router = "codar";
      placement = "sabre";
      objective = None;
      metric = None;
      restarts = 4;
      seed = 0;
      collect_stats = true;
    }
  in
  match Service.Engine.spec_of_route_req req with
  | Error msg -> Alcotest.failf "spec: %s" msg
  | Ok spec -> fst (Service.Engine.route spec)

let test_record_round_trip () =
  let r = route_record "qft_4" in
  let j = Report.Record.to_json r in
  match Report.Record.of_json j with
  | Error msg -> Alcotest.failf "of_json: %s" msg
  | Ok r' ->
    Alcotest.(check string)
      "of_json ∘ to_json re-serialises byte-identically"
      (Json.to_string ~indent:0 j)
      (Json.to_string ~indent:0 (Report.Record.to_json r'))

let test_record_survives_text () =
  (* the full persistence path: serialise, print, parse, decode *)
  let r = route_record "ghz_8" in
  let text = Json.to_string ~indent:0 (Report.Record.to_json r) in
  match Result.bind (Json.parse text) Report.Record.of_json with
  | Error msg -> Alcotest.failf "text round-trip: %s" msg
  | Ok r' ->
    Alcotest.(check string)
      "text round-trip is byte-stable" text
      (Json.to_string ~indent:0 (Report.Record.to_json r'))

let () =
  Alcotest.run "report"
    [
      ( "emitter",
        [
          Alcotest.test_case "control chars escaped" `Quick
            test_control_chars_escaped;
          Alcotest.test_case "short escapes" `Quick test_short_escapes;
          Alcotest.test_case "non-finite floats" `Quick test_non_finite_floats;
          Alcotest.test_case "float round-trip" `Quick test_float_round_trip;
        ] );
      ( "parser",
        [
          Alcotest.test_case "rejects raw control chars" `Quick
            test_rejects_raw_control;
          Alcotest.test_case "rejects trailing garbage" `Quick
            test_rejects_trailing_garbage;
          Alcotest.test_case "rejects unterminated string" `Quick
            test_rejects_unterminated;
          Alcotest.test_case "rejects bad escape" `Quick test_rejects_bad_escape;
          Alcotest.test_case "depth cap" `Quick test_depth_cap;
          Alcotest.test_case "rejects truncated literal" `Quick
            test_rejects_lone_value_garbage;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
          Alcotest.test_case "rejects loose \\u escapes" `Quick
            test_rejects_loose_unicode;
          Alcotest.test_case "number shapes" `Quick test_number_shapes;
          Alcotest.test_case "field order significant" `Quick
            test_field_order_significant;
        ] );
      ( "round-trip",
        [
          QCheck_alcotest.to_alcotest (prop_round_trip 0);
          QCheck_alcotest.to_alcotest (prop_round_trip 2);
          QCheck_alcotest.to_alcotest prop_reference_json;
        ] );
      ( "record",
        [
          Alcotest.test_case "of_json inverts to_json" `Quick
            test_record_round_trip;
          Alcotest.test_case "record survives text" `Quick
            test_record_survives_text;
        ] );
    ]
