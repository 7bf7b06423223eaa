(* End-to-end suite for the compile daemon, run in-process: each test
   boots a real [Service.Server] on a /tmp socket (Unix-domain paths are
   length-limited, so never under _build), talks to it over real
   connections, and joins it cleanly.

   What is pinned here is the service contract from docs/SERVICE.md:
   byte-identical replay on cache hits (including hits that arrive as
   differently-formatted QASM text), exactly one computation under
   concurrent duplicate requests (proved by the coalescing counters, made
   deterministic with the [on_route_start] gate), graceful degradation on
   malformed/oversized/vanishing clients, and cache persistence across
   daemon restarts. *)

module Json = Report.Json

let temp_sock tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "codar-%s-%d.sock" tag (Unix.getpid ()))

(* ---------------------------------------------------- server scaffolding *)

type server = {
  thread : Thread.t;
  outcome : (Service.Server.counters, exn) result option ref;
}

(* Boot [Server.run] on its own thread and block until the socket listens;
   a bind failure releases the waiter too (by raising here). *)
let start cfg =
  let m = Mutex.create () and c = Condition.create () in
  let ready = ref false in
  let outcome = ref None in
  let release () =
    Mutex.lock m;
    ready := true;
    Condition.signal c;
    Mutex.unlock m
  in
  let thread =
    Thread.create
      (fun () ->
        (match Service.Server.run ~on_ready:release cfg with
        | s -> outcome := Some (Ok s)
        | exception e -> outcome := Some (Error e));
        release ())
      ()
  in
  Mutex.lock m;
  while not !ready do
    Condition.wait c m
  done;
  Mutex.unlock m;
  (match !outcome with
  | Some (Error e) ->
    Thread.join thread;
    raise e
  | Some (Ok _) | None -> ());
  { thread; outcome }

let join server =
  Thread.join server.thread;
  match !(server.outcome) with
  | Some (Ok s) -> s
  | Some (Error e) -> raise e
  | None -> Alcotest.fail "server thread finished without an outcome"

let request sock frame =
  Service.Client.with_connection sock (fun t -> Service.Client.request t frame)

let shutdown_and_join sock server =
  let reply = request sock {|{"op":"shutdown"}|} in
  Alcotest.(check string) "shutdown acknowledged"
    {|{"ok":true,"op":"shutdown"}|} reply;
  join server

let parse_reply line =
  match Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable reply %S: %s" line msg

let reply_ok line =
  match Json.member "ok" (parse_reply line) with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "reply without ok field: %S" line

let reply_code line =
  match Json.member "code" (parse_reply line) with
  | Some (Json.String c) -> c
  | _ -> Alcotest.failf "error reply without code: %S" line

let counter path line =
  let j = parse_reply line in
  match
    List.fold_left
      (fun acc key -> Option.bind acc (Json.member key))
      (Some j) path
  with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "no %s counter in %S" (String.concat "." path) line

let route_qft4 = {|{"op":"route","bench":"qft_4","restarts":2}|}

(* --------------------------------------------------------------- replay *)

let test_byte_identical_replay () =
  let sock = temp_sock "replay" in
  let server =
    start (Service.Server.config ~jobs:2 ~socket_path:sock ())
  in
  let r1 = request sock route_qft4 in
  Alcotest.(check bool) "cold route ok" true (reply_ok r1);
  let r2 = request sock route_qft4 in
  Alcotest.(check string) "cache hit replays byte-identically" r1 r2;
  (* the same circuit as inline QASM text — different formatting, same
     fingerprint, same bytes back (source stays the cold record's) *)
  let qasm =
    match Workloads.Suite.find "qft_4" with
    | None -> Alcotest.fail "qft_4 missing from the suite"
    | Some e ->
      "// reformatted on purpose\n\n"
      ^ Qasm.Printer.to_string (Lazy.force e.circuit)
  in
  let inline_req =
    Json.to_string ~indent:0
      (Json.Obj
         [
           ("op", Json.String "route");
           ("qasm", Json.String qasm);
           ("restarts", Json.Int 2);
         ])
  in
  let r3 = request sock inline_req in
  Alcotest.(check string) "inline QASM hits the same entry" r1 r3;
  let stats = request sock {|{"op":"stats"}|} in
  Alcotest.(check int) "one route computed" 1
    (counter [ "service"; "routes_computed" ] stats);
  Alcotest.(check int) "two cache hits" 2 (counter [ "cache"; "hits" ] stats);
  (* a batch mixing a warm and a cold item keeps request order *)
  let batch =
    request sock
      {|{"op":"batch","requests":[{"bench":"qft_4","restarts":2},{"bench":"ghz_8","restarts":2}]}|}
  in
  Alcotest.(check bool) "batch ok" true (reply_ok batch);
  (match Json.member "results" (parse_reply batch) with
  | Some (Json.List [ a; b ]) ->
    let source item =
      Option.bind (Json.member "record" item) (Json.member "source")
    in
    Alcotest.(check bool) "first result is the qft_4 record" true
      (source a = Some (Json.String "qft_4"));
    Alcotest.(check bool) "second result is the ghz_8 record" true
      (source b = Some (Json.String "ghz_8"))
  | _ -> Alcotest.failf "batch reply shape: %S" batch);
  (* ids echo on both ok and error replies *)
  let pinged = request sock {|{"op":"ping","id":42}|} in
  Alcotest.(check string) "id echoes" {|{"ok":true,"op":"ping","id":42,"reply":"pong"}|}
    pinged;
  let bad = request sock {|{"op":"frobnicate","id":"x7"}|} in
  Alcotest.(check bool) "unknown op rejected" false (reply_ok bad);
  Alcotest.(check string) "unknown_op code" "unknown_op" (reply_code bad);
  (match Json.member "id" (parse_reply bad) with
  | Some (Json.String "x7") -> ()
  | _ -> Alcotest.failf "error reply lost the id: %S" bad);
  let svc = shutdown_and_join sock server in
  (* qft_4 cold + the batch's ghz_8; everything else was a hit *)
  Alcotest.(check int) "routes_computed in final counters" 2
    svc.Service.Server.routes_computed

(* ------------------------------------------------------------ coalescing *)

let test_coalescing_single_computation () =
  let sock = temp_sock "coalesce" in
  let clients = 4 in
  (* gate: routing blocks until the test has seen every duplicate request
     registered, so "all but one coalesce" is deterministic, not a race *)
  let gate_m = Mutex.create () and gate_c = Condition.create () in
  let gate_open = ref false in
  let started = ref 0 in
  let on_route_start _fp =
    Mutex.lock gate_m;
    incr started;
    while not !gate_open do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m
  in
  let server =
    start
      (Service.Server.config ~jobs:1 ~on_route_start ~socket_path:sock ())
  in
  let replies = Array.make clients "" in
  let threads =
    Array.init clients (fun i ->
        Thread.create (fun () -> replies.(i) <- request sock route_qft4) ())
  in
  (* stats requests bypass the routing queue, so we can poll the live
     coalescing counter while the one routing job is held at the gate *)
  let rec wait_coalesced () =
    let stats = request sock {|{"op":"stats"}|} in
    if counter [ "service"; "coalesced" ] stats < clients - 1 then begin
      Thread.yield ();
      wait_coalesced ()
    end
  in
  wait_coalesced ();
  Mutex.lock gate_m;
  gate_open := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  Array.iter Thread.join threads;
  Array.iter
    (fun r ->
      Alcotest.(check string) "every duplicate got the same bytes"
        replies.(0) r;
      Alcotest.(check bool) "and it is an ok reply" true (reply_ok r))
    replies;
  let stats = request sock {|{"op":"stats"}|} in
  Alcotest.(check int) "exactly one computation" 1
    (counter [ "service"; "routes_computed" ] stats);
  Alcotest.(check int) "exactly one insertion" 1
    (counter [ "cache"; "insertions" ] stats);
  Alcotest.(check int) "the rest coalesced" (clients - 1)
    (counter [ "service"; "coalesced" ] stats);
  let svc = shutdown_and_join sock server in
  Alcotest.(check int) "route ran once" 1 !started;
  Alcotest.(check int) "final coalesced counter" (clients - 1)
    svc.Service.Server.coalesced

(* -------------------------------------------------- graceful degradation *)

let test_survives_hostile_clients () =
  let sock = temp_sock "hostile" in
  let server =
    start
      (Service.Server.config ~jobs:1 ~max_request_bytes:256
         ~socket_path:sock ())
  in
  (* one connection, a parade of bad frames, then a good one: the
     connection (and daemon) must survive everything answerable *)
  Service.Client.with_connection sock (fun t ->
      let req frame = Service.Client.request t frame in
      Alcotest.(check string) "garbage is a parse error" "parse"
        (reply_code (req "this is not json"));
      Alcotest.(check string) "non-object frame" "bad_request"
        (reply_code (req "[1,2,3]"));
      Alcotest.(check string) "unknown key" "bad_request"
        (reply_code (req {|{"op":"route","bench":"qft_4","bogus":1}|}));
      Alcotest.(check string) "unknown bench" "bad_request"
        (reply_code (req {|{"op":"route","bench":"no_such_bench"}|}));
      Alcotest.(check string) "broken inline QASM" "bad_request"
        (reply_code (req {|{"op":"route","qasm":"qreg nonsense["}|}));
      Alcotest.(check string) "circuit too big for device" "bad_request"
        (reply_code (req {|{"op":"route","bench":"qft_8","arch":"q5"}|}));
      Alcotest.(check bool) "same connection still serves" true
        (reply_ok (req {|{"op":"ping"}|})));
  (* an oversized frame is answered, then the connection is dropped *)
  let t = Service.Client.connect sock in
  Service.Client.send_line t (String.make 1024 'x');
  (match Service.Client.recv_line t with
  | Some reply ->
    Alcotest.(check string) "oversized code" "oversized" (reply_code reply)
  | None -> Alcotest.fail "no reply to the oversized frame");
  Alcotest.(check bool) "connection dropped after oversized frame" true
    (Service.Client.recv_line t = None);
  Service.Client.close t;
  (* a client that vanishes mid-frame *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let partial = Bytes.of_string {|{"op":|} in
  ignore (Unix.write fd partial 0 (Bytes.length partial));
  Unix.close fd;
  (* daemon still alive after all of it *)
  Alcotest.(check bool) "daemon survives the parade" true
    (reply_ok (request sock {|{"op":"ping"}|}));
  ignore (shutdown_and_join sock server)

(* Deeper hostility: binary junk, wrong-typed fields, pathologically
   nested JSON. Every line must come back as a typed error on a live
   connection — in particular the deep-nesting frames, which would blow
   the parser's stack (and silently kill the connection) without the
   depth cap in Report.Json. *)
let test_hostile_frame_battery () =
  let sock = temp_sock "battery" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  Service.Client.with_connection sock (fun t ->
      let req frame = Service.Client.request t frame in
      let check_code name code frame =
        Alcotest.(check string) name code (reply_code (req frame))
      in
      (* an entirely blank line is a documented keep-alive (no reply),
         so the battery starts at whitespace-with-content *)
      check_code "whitespace line" "parse" "   ";
      check_code "binary junk" "parse" "\x01\xfe\xff\x00\x7f\x1b[31m";
      check_code "truncated object" "parse" {|{"op":"ping"|};
      check_code "truncated string" "parse" {|{"op":"pi|};
      check_code "trailing garbage" "parse" {|{"op":"ping"} extra|};
      check_code "two frames in one line" "parse" {|{"op":"ping"}{"op":"ping"}|};
      check_code "op is a number" "bad_request" {|{"op":123}|};
      check_code "op is null" "bad_request" {|{"op":null}|};
      check_code "missing op" "bad_request" {|{"id":1}|};
      check_code "wrong-typed option" "bad_request"
        {|{"op":"route","bench":"qft_4","restarts":"three"}|};
      check_code "wrong-typed source" "bad_request" {|{"op":"route","bench":123}|};
      check_code "batch items wrong type" "bad_request"
        {|{"op":"batch","items":[1,2]}|};
      (* the objective/metric vocabulary is validated before any routing *)
      check_code "unknown objective" "bad_request"
        {|{"op":"route","bench":"qft_4","objective":"bogus"}|};
      check_code "objective is a number" "bad_request"
        {|{"op":"route","bench":"qft_4","objective":5}|};
      check_code "unknown metric" "bad_request"
        {|{"op":"route","bench":"qft_4","router":"portfolio","metric":"speed"}|};
      check_code "metric on a non-portfolio router" "bad_request"
        {|{"op":"route","bench":"qft_4","router":"codar","metric":"esp"}|};
      check_code "esp metric without calibration" "bad_request"
        {|{"op":"route","bench":"qft_4","router":"portfolio","durations":"uniform","metric":"esp"}|};
      check_code "objective list on plain codar" "bad_request"
        {|{"op":"route","bench":"qft_4","router":"codar","objective":"makespan,t2"}|};
      (* ~4000 levels of nesting: a typed parse error, not a stack
         overflow or a dead connection *)
      let deep_list =
        {|{"op":|} ^ String.make 4000 '[' ^ String.make 4000 ']' ^ "}"
      in
      check_code "deeply nested list" "parse" deep_list;
      let deep_obj =
        let b = Buffer.create 40_000 in
        Buffer.add_string b {|{"op":|};
        for _ = 1 to 4000 do
          Buffer.add_string b {|{"k":|}
        done;
        Buffer.add_string b "0";
        for _ = 1 to 4000 do
          Buffer.add_char b '}'
        done;
        Buffer.add_char b '}';
        Buffer.contents b
      in
      check_code "deeply nested object" "parse" deep_obj;
      (* the same connection still serves after the whole battery *)
      Alcotest.(check bool) "connection survives" true
        (reply_ok (req {|{"op":"ping"}|})));
  Alcotest.(check bool) "daemon survives" true
    (reply_ok (request sock {|{"op":"ping"}|}));
  ignore (shutdown_and_join sock server)

(* Objectives measured and deleted (docs/ALGORITHM.md) are unknown names:
   alone, inline and in a portfolio list. *)
let deleted_objectives =
  [
    ("deleted objective", {|{"op":"route","bench":"qft_4","objective":"slack"}|});
    ( "deleted objective inline",
      {|{"op":"route","bench":"qft_4","router":"codar:depth"}|} );
    ( "deleted objective in a portfolio list",
      {|{"op":"route","bench":"qft_4","router":"portfolio","objective":"makespan,slack"}|}
    );
  ]

(* Route requests of a few dozen bytes that once escaped request handling
   as exceptions, which on the loop's thread stopped the daemon. Each must
   get a typed bad_request, on a connection that then still serves. *)
let hostile_requests =
  let qasm body =
    Json.to_string ~indent:0
      (Json.Obj
         [
           ("op", Json.String "route");
           ("qasm", Json.String ("OPENQASM 2.0;\n" ^ body));
         ])
  in
  [
    ("repeated cx operand", qasm "qreg q[2];\ncx q[0],q[0];");
    ("repeated ccx operand", qasm "qreg q[2];\nccx q[0],q[0],q[1];");
    ( "repeated operand through a macro",
      qasm "qreg q[2];\ngate g a,b { cx a,b; }\ng q[1],q[1];" );
    ("index past max_int", qasm "qreg q[2];\nh q[4611686018427387904];");
    ( "width past max_int",
      qasm "qreg q[4000000000000000000];\nqreg r[4000000000000000000];" );
    ("float index overflow", qasm "qreg q[2];\nh q[1e30];");
    ("20-digit index", qasm "qreg q[2];\nh q[18446744073709551616];");
    ( "clbit index overflow",
      qasm "qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[1e30];" );
    ("recursive macro", qasm "qreg q[1];\ngate g a { g a; }\ng q[0];");
    (* texts that expand past what any device runs, refused by the parser
       before the loop builds their gates: a register wider than the
       device, and 20 macros that each apply the one before twice *)
    ("register wider than the device", qasm "qreg q[2000000];\nh q;");
    ( "macro nest past the gate bound",
      qasm
        ("qreg q[1];\ngate g0 a { h a; }\n"
        ^ String.concat ""
            (List.init 20 (fun k ->
                 Printf.sprintf "gate g%d a { g%d a; g%d a; }\n" (k + 1) k k))
        ^ "g20 q[0];") );
    ("ring under 3 qubits", {|{"op":"route","bench":"qft_4","arch":"ring-2"}|});
    ("negative linear", {|{"op":"route","bench":"qft_4","arch":"linear--3"}|});
    (* devices past Coupling.max_qubits (qubits, or couplers for a
       complete graph), refused before the loop builds them *)
    ( "linear past the qubit bound",
      {|{"op":"route","bench":"ghz_3","arch":"linear-1000000"}|} );
    ( "complete graph past the edge bound",
      {|{"op":"route","bench":"ghz_3","arch":"full-2000"}|} );
    ( "grid past the qubit bound",
      {|{"op":"route","bench":"ghz_3","arch":"grid-33x32"}|} );
  ]
  (* placement counts in decimal digits only, and a request's work
     multipliers bounded: sabre-<k> by Placement.max_passes, portfolio
     restarts by Codar.Portfolio.max_restarts *)
  @ List.map
      (fun p ->
        ( "placement " ^ p,
          Printf.sprintf {|{"op":"route","bench":"qft_4","placement":"%s"}|}
            p ))
      [
        "sabre-0x3";
        "random-0b11";
        "sabre-1_0";
        "sabre-+2";
        Printf.sprintf "sabre-%d" (Placement.max_passes + 1);
      ]
  @ [
      ( "restarts past the bound",
        Printf.sprintf
          {|{"op":"route","bench":"qft_4","router":"portfolio","restarts":%d}|}
          (Codar.Portfolio.max_restarts + 1) );
    ]
  @ deleted_objectives

let test_hostile_requests () =
  let sock = temp_sock "requests" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  Service.Client.with_connection sock (fun t ->
      List.iter
        (fun (name, frame) ->
          Alcotest.(check string) name "bad_request"
            (reply_code (Service.Client.request t frame));
          Alcotest.(check bool) (name ^ ": ping answers") true
            (reply_ok (Service.Client.request t {|{"op":"ping"}|})))
        hostile_requests);
  (* the refusal names the bound *)
  let reply =
    request sock {|{"op":"route","bench":"ghz_3","arch":"full-129"}|}
  in
  let rec contains needle msg i =
    i + String.length needle <= String.length msg
    && (String.sub msg i (String.length needle) = needle
       || contains needle msg (i + 1))
  in
  let names what needle reply =
    match Json.member "error" (parse_reply reply) with
    | Some (Json.String msg) ->
      Alcotest.(check bool) (what ^ " named: " ^ msg) true
        (contains needle msg 0)
    | _ -> Alcotest.failf "refusal without an error message: %S" reply
  in
  names "bound" (Printf.sprintf "%d qubits" Arch.Coupling.max_qubits) reply;
  (* ... and a deleted objective's refusal lists the objectives left *)
  List.iter
    (fun (_, frame) ->
      names "objectives" "makespan, t2" (request sock frame))
    deleted_objectives;
  Alcotest.(check bool) "daemon survives" true
    (reply_ok (request sock {|{"op":"ping"}|}));
  ignore (shutdown_and_join sock server)

(* A reply is counted by its ok field, whichever path answered it: an
   unknown benchmark, a QASM parse error and a route whose pool task
   raises are three errors and no successes. *)
let test_failed_routes_counted () =
  let sock = temp_sock "errcount" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  Service.Client.with_connection sock (fun t ->
      let req = Service.Client.request t in
      let counts () =
        let s = req {|{"op":"stats"}|} in
        ( counter [ "service"; "responses_ok" ] s,
          counter [ "service"; "responses_err" ] s )
      in
      let ok0, err0 = counts () in
      let refused name frame code =
        Alcotest.(check string) name code (reply_code (req frame))
      in
      refused "unknown bench" {|{"op":"route","bench":"no_such_bench"}|}
        "bad_request";
      refused "parse error"
        {|{"op":"route","qasm":"OPENQASM 2.0;\nqreg q[2];\nbananas;"}|}
        "bad_request";
      Faults.with_plan
        (Faults.plan ~seed:1 [ (Faults.Pool_task_exn, 1.0) ])
        (fun () ->
          refused "route that raises" {|{"op":"route","bench":"qft_5"}|}
            "route_failed");
      let ok1, err1 = counts () in
      (* the first stats reply is the one success in between *)
      Alcotest.(check (pair int int)) "counted by ok field" (ok0 + 1, err0 + 3)
        (ok1, err1));
  ignore (shutdown_and_join sock server)

(* A warm route reply is written around the cache's stored record JSON;
   it must be the bytes the tree encoder gives, whatever the echoed id. *)
let test_spliced_reply () =
  let spec =
    match
      Service.Engine.spec_of_route_req
        (match Service.Protocol.parse_frame route_qft4 with
        | Ok (_, Service.Protocol.Route rr) -> rr
        | _ -> Alcotest.fail "route_qft4 does not decode")
    with
    | Ok spec -> spec
    | Error msg -> Alcotest.fail msg
  in
  let record, _ = Service.Engine.route spec in
  let fp = Service.Engine.fingerprint spec in
  let cache = Cache.create ~max_entries:4 () in
  Cache.add cache fp record;
  let hit =
    match Cache.find_hit cache fp with
    | Some h -> h
    | None -> Alcotest.fail "no hit"
  in
  List.iter
    (fun (name, id) ->
      Alcotest.(check string) name
        (Service.Ops.route_frame ?id (Service.Ops.item_ok ~fingerprint:fp record))
        (Service.Ops.hit_frame ?id hit))
    [
      ("no id", None);
      ("int id", Some (Json.Int 42));
      ("float id", Some (Json.Float 0.1));
      ("string id with escapes", Some (Json.String "a\"b\\c\n\x01\xff"));
      ( "nested id",
        Some
          (Json.Obj
             [
               ("k", Json.List [ Json.Null; Json.Bool true; Json.Int (-3) ]);
               ("o", Json.Obj [ ("x", Json.String "y") ]);
             ]) );
    ]

(* A computed route's reply is written around the JSON the cache stored
   for its record; its bytes must be those the tree encoder gives for the
   record, for a cold reply without an id, one with an id, and a waiter
   that coalesced onto another request's computation. *)
let test_cold_reply_bytes () =
  let sock = temp_sock "coldbytes" in
  let gate_m = Mutex.create () and gate_c = Condition.create () in
  let gate_open = ref true in
  let on_route_start _fp =
    Mutex.lock gate_m;
    while not !gate_open do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m
  in
  let set_gate v =
    Mutex.lock gate_m;
    gate_open := v;
    Condition.broadcast gate_c;
    Mutex.unlock gate_m
  in
  let server =
    start
      (Service.Server.config ~jobs:1 ~on_route_start ~socket_path:sock ())
  in
  let tree_bytes ?id reply =
    let j = parse_reply reply in
    match (Json.member "fingerprint" j, Json.member "record" j) with
    | Some (Json.String fp), Some r -> (
      match Report.Record.of_json r with
      | Ok record ->
        Service.Ops.route_frame ?id (Service.Ops.item_ok ~fingerprint:fp record)
      | Error msg -> Alcotest.failf "record does not decode: %s" msg)
    | _ -> Alcotest.failf "not a route reply: %S" reply
  in
  let check name ?id reply =
    Alcotest.(check bool) (name ^ " is ok") true (reply_ok reply);
    Alcotest.(check string) name (tree_bytes ?id reply) reply
  in
  check "cold, no id" (request sock route_qft4);
  check "cold, id" ~id:(Json.Int 7)
    (request sock {|{"op":"route","bench":"ghz_8","restarts":2,"id":7}|});
  (* hold the next route until its twin has coalesced onto it *)
  set_gate false;
  let frames =
    [|
      ( {|{"op":"route","bench":"qft_6","restarts":2,"id":"a"}|},
        Some (Json.String "a") );
      ({|{"op":"route","bench":"qft_6","restarts":2}|}, None);
    |]
  in
  let replies = Array.make 2 "" in
  let threads =
    Array.mapi
      (fun i (frame, _) ->
        Thread.create (fun () -> replies.(i) <- request sock frame) ())
      frames
  in
  let rec wait_coalesced () =
    let stats = request sock {|{"op":"stats"}|} in
    if counter [ "service"; "coalesced" ] stats < 1 then begin
      Thread.yield ();
      wait_coalesced ()
    end
  in
  wait_coalesced ();
  set_gate true;
  Array.iter Thread.join threads;
  Array.iteri
    (fun i (_, id) ->
      check (Printf.sprintf "computed or coalesced %d" i) ?id replies.(i))
    frames;
  let stats = request sock {|{"op":"stats"}|} in
  Alcotest.(check int) "three routes computed" 3
    (counter [ "service"; "routes_computed" ] stats);
  ignore (shutdown_and_join sock server)

(* parse_frame itself must be total: any byte string yields Ok or a
   typed error, never an exception. *)
let prop_parse_frame_total =
  QCheck.Test.make ~count:500 ~name:"parse_frame never raises"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      match Service.Protocol.parse_frame s with
      | Ok _ | Error _ -> true)

(* and the same for near-miss JSON: random mutations of a valid frame *)
let prop_parse_frame_mutations =
  let base = {|{"op":"route","bench":"qft_4","arch":"tokyo","restarts":2}|} in
  QCheck.Test.make ~count:500 ~name:"parse_frame survives mutations"
    QCheck.(pair (int_bound (String.length base - 1)) (int_bound 255))
    (fun (pos, byte) ->
      let mutated = Bytes.of_string base in
      Bytes.set mutated pos (Char.chr byte);
      match Service.Protocol.parse_frame (Bytes.to_string mutated) with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------ persistence *)

let test_cache_survives_restart () =
  let sock = temp_sock "persist" in
  let cache_file =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "codar-persist-%d.json" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove cache_file with Sys_error _ -> ())
    (fun () ->
      let cfg () =
        Service.Server.config ~jobs:1 ~cache_file ~socket_path:sock ()
      in
      let server = start (cfg ()) in
      let cold = request sock route_qft4 in
      Alcotest.(check bool) "cold route ok" true (reply_ok cold);
      ignore (shutdown_and_join sock server);
      Alcotest.(check bool) "cache file written on shutdown" true
        (Sys.file_exists cache_file);
      (* a fresh daemon, same file: the first route must already hit *)
      let server = start (cfg ()) in
      let warm = request sock route_qft4 in
      Alcotest.(check string)
        "reply is byte-identical across daemon restarts" cold warm;
      let stats = request sock {|{"op":"stats"}|} in
      Alcotest.(check int) "no recomputation" 0
        (counter [ "service"; "routes_computed" ] stats);
      Alcotest.(check int) "served from the loaded cache" 1
        (counter [ "cache"; "hits" ] stats);
      ignore (shutdown_and_join sock server))

(* ----------------------------------------------------------- request memo *)

let qasm_frame text =
  Json.to_string ~indent:0
    (Json.Obj
       [
         ("op", Json.String "route");
         ("qasm", Json.String text);
         ("restarts", Json.Int 2);
       ])

(* Whitespace variants share one record under two memo keys; repeats are
   memo hits, each counted as exactly one cache hit; the replies stay
   byte-identical. *)
let test_memo_whitespace_variants () =
  let text =
    Qasm.Printer.to_string
      (Lazy.force (Option.get (Workloads.Suite.find "qft_4")).circuit)
  in
  let a = qasm_frame text and b = qasm_frame ("\n  " ^ text ^ "\n") in
  let sock = temp_sock "memo" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  let cold = request sock a in
  Alcotest.(check bool) "cold route ok" true (reply_ok cold);
  List.iter
    (fun frame ->
      Alcotest.(check string) "replay byte-identical" cold (request sock frame))
    [ a; b; a; b; a ];
  let stats = request sock {|{"op":"stats"}|} in
  Alcotest.(check int) "one route computed" 1
    (counter [ "service"; "routes_computed" ] stats);
  Alcotest.(check int) "one hit per warm request" 5
    (counter [ "cache"; "hits" ] stats);
  Alcotest.(check int) "three of them memo hits" 3
    (counter [ "cache"; "memo_hits" ] stats);
  Alcotest.(check int) "one miss" 1 (counter [ "cache"; "misses" ] stats);
  let info = request sock {|{"op":"cache","action":"info"}|} in
  Alcotest.(check int) "one cache entry" 1 (counter [ "cache"; "entries" ] info);
  Alcotest.(check int) "two memo keys" 2 (counter [ "cache"; "memo_keys" ] info);
  ignore (shutdown_and_join sock server)

(* A memoised request whose record was evicted falls back to parsing: it
   is counted as one miss, not two, and routed again. *)
let test_memo_after_eviction () =
  let sock = temp_sock "memo-evict" in
  let server =
    start
      (Service.Server.config ~jobs:1 ~cache_entries:1 ~socket_path:sock ())
  in
  let route_ghz = {|{"op":"route","bench":"ghz_3","restarts":2}|} in
  let cold = request sock route_qft4 in
  Alcotest.(check string) "hit, memoised" cold (request sock route_qft4);
  Alcotest.(check bool) "other route ok" true (reply_ok (request sock route_ghz));
  let again = request sock route_qft4 in
  Alcotest.(check bool) "evicted request routes again" true (reply_ok again);
  let stats = request sock {|{"op":"stats"}|} in
  Alcotest.(check int) "three misses" 3 (counter [ "cache"; "misses" ] stats);
  Alcotest.(check int) "one hit" 1 (counter [ "cache"; "hits" ] stats);
  Alcotest.(check int) "no memo hit" 0 (counter [ "cache"; "memo_hits" ] stats);
  Alcotest.(check int) "two evictions" 2
    (counter [ "cache"; "evictions" ] stats);
  Alcotest.(check int) "three routes" 3
    (counter [ "service"; "routes_computed" ] stats);
  ignore (shutdown_and_join sock server)

(* An id-less top-level route frame is memoised under its line: repeats
   are answered from their bytes, one memo hit each. A formatting variant
   is another line, a frame with an id uses the request key (and echoes
   its id), a line equal to a request key is no frame at all, and a bad
   request is never admitted. *)
let test_line_memo () =
  let sock = temp_sock "line-memo" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  let memo () =
    let stats = request sock {|{"op":"stats"}|} in
    let info = request sock {|{"op":"cache","action":"info"}|} in
    ( counter [ "cache"; "memo_hits" ] stats,
      counter [ "cache"; "memo_keys" ] info,
      counter [ "cache"; "hits" ] stats )
  in
  let check_memo what (hits, keys, cache_hits) =
    let h, k, c = memo () in
    Alcotest.(check int) (what ^ ": memo hits") hits h;
    Alcotest.(check int) (what ^ ": memo keys") keys k;
    Alcotest.(check int) (what ^ ": cache hits") cache_hits c
  in
  let cold = request sock route_qft4 in
  Alcotest.(check bool) "cold route ok" true (reply_ok cold);
  (* the first repeat hits by fingerprint and memoises the line *)
  for _ = 1 to 4 do
    Alcotest.(check string) "line-key replay byte-identical" cold
      (request sock route_qft4)
  done;
  check_memo "repeats" (3, 1, 4);
  let stats = request sock {|{"op":"stats"}|} in
  Alcotest.(check int) "every frame a request" 8
    (counter [ "service"; "requests" ] stats);
  let variant = {|{"op":"route", "bench":"qft_4","restarts":2}|} in
  Alcotest.(check string) "a formatting variant replays too" cold
    (request sock variant);
  check_memo "variant" (3, 2, 5);
  Alcotest.(check string) "and is then a line hit of its own" cold
    (request sock variant);
  check_memo "variant again" (4, 2, 6);
  let with_id k =
    Printf.sprintf {|{"op":"route","bench":"qft_4","restarts":2,"id":%d}|} k
  in
  let expect_id k =
    let head = {|{"ok":true,"op":"route"|} in
    let n = String.length head in
    head ^ Printf.sprintf {|,"id":%d|} k
    ^ String.sub cold n (String.length cold - n)
  in
  Alcotest.(check string) "an id is echoed" (expect_id 1)
    (request sock (with_id 1));
  check_memo "id: fingerprint hit, request key" (4, 3, 7);
  Alcotest.(check string) "another id, same request" (expect_id 2)
    (request sock (with_id 2));
  check_memo "id: request-key hit" (5, 3, 8);
  let key =
    match Service.Protocol.parse_frame (with_id 1) with
    | Ok (_, Service.Protocol.Route rr) -> Service.Engine.request_key rr
    | _ -> Alcotest.fail "the id frame does not decode"
  in
  Alcotest.(check string) "a request key as a line is a parse error" "parse"
    (reply_code (request sock key));
  List.iter
    (fun bad ->
      for _ = 1 to 2 do
        Alcotest.(check string) "bad request" "bad_request"
          (reply_code (request sock bad))
      done)
    [
      {|{"op":"route","bench":"qft_8","arch":"q5"}|};
      {|{"op":"route","bench":"no_such_bench"}|};
      {|{"op":"route","bench":"qft_4","restarts":0}|};
    ];
  check_memo "bad requests are not admitted" (5, 3, 8);
  ignore (shutdown_and_join sock server)

(* ---------------------------------------------------- event loop details *)

(* The select-timeout computation is pure; pin that the nearest armed
   deadline bounds the sleep (no other thread papers over a miss). *)
let test_select_timeout () =
  let st = Service.Server.select_timeout in
  Alcotest.(check (float 1e-9))
    "no deadlines: sleep until an fd event" (-1.)
    (st ~now:100. []);
  Alcotest.(check (float 1e-9))
    "nearest deadline bounds the sleep" 0.25
    (st ~now:100. [ 100.75; 100.25; 101. ]);
  Alcotest.(check (float 1e-9))
    "expired deadline: poll immediately" 0.
    (st ~now:100. [ 99.5; 100.75 ]);
  Alcotest.(check (float 1e-9))
    "exact deadline: poll immediately" 0.
    (st ~now:100. [ 100. ])

(* Regression: a read chunk carrying a complete frame *and* the start of
   the next one must keep the mid-frame deadline armed for the partial
   tail. The loop used to clear the clock after extracting complete
   lines, so a pipelining client could hold a connection (and its
   buffers) forever with an unfinished trailer. *)
let test_pipelined_partial_frame_deadline () =
  let sock = temp_sock "partial" in
  let server =
    start
      (Service.Server.config ~jobs:1 ~timeout_ms:200 ~socket_path:sock ())
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let payload = "{\"op\":\"ping\"}\n{\"op\":\"pi" in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let ic = Unix.in_channel_of_descr fd in
  Alcotest.(check bool) "complete frame answered" true
    (reply_ok (input_line ic));
  (* the partial trailer must expire, not hang forever *)
  Alcotest.(check string) "partial trailer expires" "deadline_exceeded"
    (reply_code (input_line ic));
  Alcotest.(check bool) "connection dropped after the abandoned frame" true
    (match input_line ic with
    | _ -> false
    | exception End_of_file -> true);
  Unix.close fd;
  Alcotest.(check bool) "daemon survives" true
    (reply_ok (request sock {|{"op":"ping"}|}));
  ignore (shutdown_and_join sock server)

(* At the connection cap the daemon stops polling its listen fd —
   further connections wait in the kernel backlog instead of pushing
   select past FD_SETSIZE — and accepts again the moment a slot frees. *)
let test_connection_cap () =
  let sock = temp_sock "cap" in
  let server =
    start
      (Service.Server.config ~jobs:1 ~max_connections:2 ~socket_path:sock ())
  in
  let a = Service.Client.connect sock in
  let b = Service.Client.connect sock in
  Alcotest.(check bool) "first capped connection serves" true
    (reply_ok (Service.Client.request a {|{"op":"ping"}|}));
  Alcotest.(check bool) "second capped connection serves" true
    (reply_ok (Service.Client.request b {|{"op":"ping"}|}));
  (* a third connection lands in the backlog: connect succeeds, but
     nothing answers while both slots are held *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ping = "{\"op\":\"ping\"}\n" in
  ignore (Unix.write_substring fd ping 0 (String.length ping));
  (match Unix.select [ fd ] [] [] 0.3 with
  | [], _, _ -> ()
  | _ -> Alcotest.fail "over-cap connection was served while at the cap");
  Service.Client.close a;
  let ic = Unix.in_channel_of_descr fd in
  Alcotest.(check bool) "queued connection served once a slot freed" true
    (reply_ok (input_line ic));
  let stats = Service.Client.request b {|{"op":"stats"}|} in
  Alcotest.(check int) "peak never exceeded the cap" 2
    (counter [ "service"; "conns_peak" ] stats);
  Alcotest.(check string) "shutdown acknowledged"
    {|{"ok":true,"op":"shutdown"}|}
    (Service.Client.request b {|{"op":"shutdown"}|});
  Unix.close fd;
  Service.Client.close b;
  let svc = join server in
  Alcotest.(check int) "final peak stayed at the cap" 2
    svc.Service.Server.conns_peak

let test_connection_observability () =
  let sock = temp_sock "obs" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  Service.Client.with_connection sock (fun a ->
      Service.Client.with_connection sock (fun b ->
          Alcotest.(check bool) "first connection serves" true
            (reply_ok (Service.Client.request a {|{"op":"ping"}|}));
          let stats = Service.Client.request b {|{"op":"stats"}|} in
          Alcotest.(check int) "two connections accepted" 2
            (counter [ "service"; "connections" ] stats);
          Alcotest.(check int) "both still active" 2
            (counter [ "service"; "conns_active" ] stats);
          Alcotest.(check int) "peak is two" 2
            (counter [ "service"; "conns_peak" ] stats);
          Alcotest.(check bool) "request bytes counted" true
            (counter [ "service"; "bytes_in" ] stats > 0);
          Alcotest.(check bool) "reply bytes counted" true
            (counter [ "service"; "bytes_out" ] stats > 0);
          Alcotest.(check int) "no stalls from healthy clients" 0
            (counter [ "service"; "wb_stalls" ] stats)));
  let svc = shutdown_and_join sock server in
  Alcotest.(check int) "active connections drain to zero" 0
    svc.Service.Server.conns_active;
  Alcotest.(check bool) "final peak at least two" true
    (svc.Service.Server.conns_peak >= 2)

(* A deliberately slow-reading client: thousands of pipelined warm
   requests, no reads until every request is written. Its reply bytes
   back up past the (tiny, for the test) high-watermark, so the daemon
   must stop reading it — and count the stall — while other connections
   stay fully served; once the slow reader finally drains, every one of
   its replies must still be complete and byte-identical. *)
let test_backpressure_slow_reader () =
  let sock = temp_sock "backpressure" in
  let server =
    start
      (Service.Server.config ~jobs:1 ~write_watermark_bytes:2048
         ~timeout_ms:250 ~socket_path:sock ())
  in
  let reference = request sock route_qft4 in
  Alcotest.(check bool) "warm reference ok" true (reply_ok reference);
  (* ~90 KB of requests (safely under the kernel socket buffers, so the
     un-read pipeline cannot deadlock the test's own blocking writes)
     producing far more reply bytes than the kernel will buffer *)
  let n = 2000 in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let payload =
    String.concat "" (List.init n (fun _ -> route_qft4 ^ "\n"))
    (* plus a partial trailer: its read deadline must pause while the
       server itself has stalled this connection at the watermark — a
       stall is the server's refusal to read, not a client offence *)
    ^ {|{"op":"pi|}
  in
  let len = String.length payload in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd payload !pos (len - !pos)
  done;
  (* the slow reader's backlog must not block anyone else *)
  Alcotest.(check bool) "other connections still served" true
    (reply_ok (request sock {|{"op":"ping"}|}));
  (* nothing is being read from [fd], and the replies far exceed the
     kernel socket buffer, so the watermark must trip; wait for it
     before draining (the drain itself races the stall otherwise) *)
  let rec wait_stall () =
    let stats = request sock {|{"op":"stats"}|} in
    if counter [ "service"; "wb_stalls" ] stats < 1 then begin
      Thread.yield ();
      wait_stall ()
    end
  in
  wait_stall ();
  (* drain: all n replies, each complete and byte-identical *)
  let ic = Unix.in_channel_of_descr fd in
  let all_identical = ref true in
  for _ = 1 to n do
    let line = input_line ic in
    if not (String.equal line reference) then all_identical := false
  done;
  Alcotest.(check bool) "every backed-up reply byte-identical" true
    !all_identical;
  (* only once the stalls have lifted does the trailer's clock run; it
     then expires as usual — after every buffered reply was delivered *)
  Alcotest.(check string) "partial trailer expires after the drain"
    "deadline_exceeded"
    (reply_code (input_line ic));
  let stats = request sock {|{"op":"stats"}|} in
  Alcotest.(check bool) "stall episodes counted" true
    (counter [ "service"; "wb_stalls" ] stats >= 1);
  Alcotest.(check int) "replies still served from one computation" 1
    (counter [ "service"; "routes_computed" ] stats);
  Unix.close fd;
  let svc = shutdown_and_join sock server in
  Alcotest.(check bool) "final stall counter kept" true
    (svc.Service.Server.wb_stalls >= 1)

let test_request_many_pipelining () =
  let sock = temp_sock "pipeline" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  let warm = request sock route_qft4 in
  Service.Client.with_connection sock (fun t ->
      let replies =
        Service.Client.request_many t
          [ {|{"op":"ping","id":1}|}; route_qft4; {|{"op":"ping","id":2}|} ]
      in
      match replies with
      | [ p1; r; p2 ] ->
        Alcotest.(check string) "first reply in order"
          {|{"ok":true,"op":"ping","id":1,"reply":"pong"}|} p1;
        Alcotest.(check string) "route reply identical to the one-shot path"
          warm r;
        Alcotest.(check string) "last reply in order"
          {|{"ok":true,"op":"ping","id":2,"reply":"pong"}|} p2
      | replies ->
        Alcotest.failf "expected 3 replies, got %d" (List.length replies));
  (* a pipeline big enough to force interleaved write/read *)
  Service.Client.with_connection sock (fun t ->
      let n = 500 in
      let replies =
        Service.Client.request_many t (List.init n (fun _ -> route_qft4))
      in
      Alcotest.(check int) "one reply per pipelined request" n
        (List.length replies);
      Alcotest.(check bool) "all byte-identical" true
        (List.for_all (String.equal warm) replies));
  (* a reply past the connection's bound fails, the same way for both *)
  let capped f =
    Service.Client.with_connection ~max_reply_bytes:8 sock (fun t ->
        match f t with _ -> None | exception Failure msg -> Some msg)
  in
  let ping = {|{"op":"ping"}|} in
  Alcotest.(check (option string)) "request past the reply bound"
    (Some "Service.Client: reply exceeds the frame limit")
    (capped (fun t -> Service.Client.request t ping));
  Alcotest.(check (option string)) "request_many past the reply bound"
    (Some "Service.Client: reply exceeds the frame limit")
    (capped (fun t -> Service.Client.request_many t [ ping ]));
  ignore (shutdown_and_join sock server)

(* ---------------------------------------------------------------- framing *)

(* A byte stream of frames: pings (one with a CR before its newline),
   garbage, blank lines, a frame past the cap; then possibly an
   unterminated trailer. [chunked] cuts it at random points. *)
let frame_cap = 64

let stream_gen =
  let open QCheck.Gen in
  let segment =
    oneof
      [
        return {|{"op":"ping"}|};
        return "{\"op\":\"ping\"}\r";
        map (Printf.sprintf {|{"op":"ping","id":%d}|}) (int_bound 999);
        return "";
        return "not json";
        map (fun n -> String.make (frame_cap + 1 + n) 'x') (int_bound 40);
      ]
  in
  let trailer =
    oneof
      [
        return "";
        return {|{"op":"ping"}|};
        return {|{"op":|};
        return (String.make (frame_cap + 8) 'y');
      ]
  in
  map2
    (fun segs trailer -> String.concat "" (List.map (fun l -> l ^ "\n") segs) ^ trailer)
    (list_size (int_range 0 8) segment)
    trailer

let chunked_gen =
  let open QCheck.Gen in
  stream_gen >>= fun s ->
  map
    (fun cuts ->
      let cuts =
        List.sort_uniq Int.compare
          (List.filter (fun c -> c > 0 && c < String.length s) cuts)
      in
      let bounds = (0 :: cuts) @ [ String.length s ] in
      let rec pieces = function
        | a :: (b :: _ as rest) -> String.sub s a (b - a) :: pieces rest
        | [ _ ] | [] -> []
      in
      (s, List.filter (fun p -> p <> "") (pieces bounds)))
    (list_size (int_range 0 12) (int_bound (max 1 (String.length s))))

let chunked_arb =
  QCheck.make chunked_gen
    ~print:(fun (s, chunks) ->
      Printf.sprintf "%S in %d chunks: %s" s (List.length chunks)
        (String.concat " | " (List.map (Printf.sprintf "%S") chunks)))

(* What any reader must yield for [s]: its lines up to the first frame
   past the cap, then the unterminated trailer, if any. *)
let expected_frames ~max s =
  let parts = String.split_on_char '\n' s in
  let rec go = function
    | [] -> []
    | [ trailer ] ->
      if String.length trailer > max then [ `Oversized ]
      else if trailer = "" then []
      else [ `Line trailer ]
    | l :: rest ->
      if String.length l > max then [ `Oversized ] else `Line l :: go rest
  in
  go parts

(* The framer fed chunk by chunk, drained after each like both servers
   drain it. *)
let framer_frames ~max chunks =
  let f = Service.Frame.framer ~max_bytes:max in
  let out = ref [] and stopped = ref false in
  let rec drain () =
    match Service.Frame.next f with
    | `Line l ->
      out := `Line l :: !out;
      drain ()
    | `Oversized -> stopped := true
    | `Partial -> ()
  in
  List.iter
    (fun c ->
      if not !stopped then begin
        Service.Frame.feed f (Bytes.of_string c) 0 (String.length c);
        drain ()
      end)
    chunks;
  if !stopped then out := `Oversized :: !out
  else if Service.Frame.buffered f > 0 then
    out := `Line (Service.Frame.take_rest f) :: !out;
  List.rev !out

let prop_framer_chunking =
  QCheck.Test.make ~count:1000 ~name:"framer: any chunking, same frames"
    chunked_arb (fun (s, chunks) ->
      let whole = framer_frames ~max:frame_cap [ s ] in
      whole = expected_frames ~max:frame_cap s
      && framer_frames ~max:frame_cap chunks = whole)

(* [Frame.reader] over a SEQPACKET pair: every chunk is one message, so
   each read returns exactly one chunk. *)
let reader_frames ~max chunks =
  let r_fd, w_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_SEQPACKET 0 in
  let writer =
    Thread.create
      (fun () ->
        List.iter
          (fun c ->
            try ignore (Unix.write_substring w_fd c 0 (String.length c))
            with Unix.Unix_error _ -> ())
          chunks;
        Unix.close w_fd)
      ()
  in
  let r = Service.Frame.reader ~max_bytes:max r_fd in
  let rec go acc =
    match Service.Frame.read r with
    | `Line l -> go (`Line l :: acc)
    | `Oversized -> List.rev (`Oversized :: acc)
    | `Eof -> List.rev acc
  in
  let frames = go [] in
  Unix.close r_fd;
  Thread.join writer;
  frames

let prop_reader_chunking =
  QCheck.Test.make ~count:200 ~name:"Frame.reader: any chunking, same frames"
    chunked_arb (fun (s, chunks) ->
      reader_frames ~max:frame_cap chunks = expected_frames ~max:frame_cap s)

(* The servers' replies to a stream sent in pieces, a short pause after
   each so the daemon tends to read them one at a time, then a
   half-close; read until the daemon closes. *)
let replies_to sock chunks =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (try
     List.iter
       (fun c ->
         ignore (Unix.write_substring fd c 0 (String.length c));
         Thread.delay 0.0005)
       chunks;
     Unix.shutdown fd Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ -> () (* closed after an oversized frame *));
  let r = Service.Frame.reader fd in
  let rec go acc =
    match Service.Frame.read r with
    | `Line l -> go (l :: acc)
    | `Eof | `Oversized -> List.rev acc
  in
  let replies = go [] in
  Unix.close fd;
  replies

let test_server_chunking () =
  let sock = temp_sock "chunks" in
  let server =
    start
      (Service.Server.config ~jobs:1 ~max_request_bytes:frame_cap
         ~socket_path:sock ())
  in
  let prop =
    QCheck.Test.make ~count:25 ~name:"server: any chunking, same replies"
      chunked_arb (fun (s, chunks) ->
        replies_to sock chunks = replies_to sock [ s ])
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |]) prop;
  ignore (shutdown_and_join sock server)

(* [Frame.read_once] applies the armed fault plan's read-side points: a
   fired mid-frame EOF reads nothing and a fired short read takes one
   byte; unarmed, it reads what is there. *)
let test_read_once_faults () =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock r;
  let buf = Bytes.create 64 in
  let read () =
    match Service.Frame.read_once r buf with
    | `Data n -> Printf.sprintf "data %d" n
    | `Eof -> "eof"
    | `Again -> "again"
  in
  let armed point = Faults.with_plan (Faults.plan ~seed:1 [ (point, 1.0) ]) read in
  ignore (Unix.write_substring w "ping\n" 0 5);
  Alcotest.(check string) "fired mid-frame EOF" "eof"
    (armed Faults.Frame_read_eof);
  Alcotest.(check string) "fired short read" "data 1"
    (armed Faults.Frame_short_read);
  Alcotest.(check string) "unarmed: the rest" "data 4" (read ());
  Alcotest.(check string) "nothing buffered" "again" (read ());
  Unix.close w;
  Alcotest.(check string) "peer closed" "eof" (read ());
  Unix.close r

(* One ~4 MB frame in 4 KB writes, with the client's send buffer kept
   small so the daemon reads it a few KB at a time. Framing that copies
   and re-scans the buffered partial frame on every read spent 2.2 s of
   CPU on this; linear framing spends about 0.03 s. *)
let test_large_frame_linear () =
  let sock = temp_sock "large-frame" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_int fd Unix.SO_SNDBUF 4096;
  let frame = String.make (4 * 1024 * 1024) 'x' ^ "\n" in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () in
  let pos = ref 0 in
  while !pos < String.length frame do
    let n = min 4096 (String.length frame - !pos) in
    pos := !pos + Unix.write_substring fd frame !pos n
  done;
  let reply =
    match Service.Frame.read (Service.Frame.reader fd) with
    | `Line l -> l
    | `Eof | `Oversized -> Alcotest.fail "no reply to the frame"
  in
  let spent = cpu () -. c0 in
  Unix.close fd;
  Alcotest.(check string) "the frame is read whole" "parse" (reply_code reply);
  if spent > 0.25 then
    Alcotest.failf "4 MB frame in 4 KB writes took %.3f s of CPU (bound 0.25 s)"
      spent;
  ignore (shutdown_and_join sock server)

let () =
  Alcotest.run "service"
    [
      ( "daemon",
        [
          Alcotest.test_case "byte-identical replay" `Quick
            test_byte_identical_replay;
          Alcotest.test_case "coalescing" `Quick
            test_coalescing_single_computation;
          Alcotest.test_case "hostile clients" `Quick
            test_survives_hostile_clients;
          Alcotest.test_case "hostile frame battery" `Quick
            test_hostile_frame_battery;
          Alcotest.test_case "hostile requests: evented" `Quick
            test_hostile_requests;
          Alcotest.test_case "failed routes counted: evented" `Quick
            test_failed_routes_counted;
          Alcotest.test_case "cache survives restart" `Quick
            test_cache_survives_restart;
          Alcotest.test_case "memo: whitespace variants" `Quick
            test_memo_whitespace_variants;
          Alcotest.test_case "memo: after eviction" `Quick
            test_memo_after_eviction;
          Alcotest.test_case "memo: line keys, evented" `Quick test_line_memo;
        ] );
      ( "evented",
        [
          Alcotest.test_case "select timeout" `Quick test_select_timeout;
          Alcotest.test_case "pipelined partial-frame deadline" `Quick
            test_pipelined_partial_frame_deadline;
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
          Alcotest.test_case "connection observability" `Quick
            test_connection_observability;
          Alcotest.test_case "backpressure slow reader" `Quick
            test_backpressure_slow_reader;
          Alcotest.test_case "request_many pipelining" `Quick
            test_request_many_pipelining;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "warm reply from stored bytes" `Quick
            test_spliced_reply;
          Alcotest.test_case "cold reply from stored bytes" `Quick
            test_cold_reply_bytes;
          QCheck_alcotest.to_alcotest prop_parse_frame_total;
          QCheck_alcotest.to_alcotest prop_parse_frame_mutations;
        ] );
      ( "framing",
        [
          QCheck_alcotest.to_alcotest prop_framer_chunking;
          QCheck_alcotest.to_alcotest prop_reader_chunking;
          Alcotest.test_case "server chunking: evented" `Quick
            test_server_chunking;
          Alcotest.test_case "read_once applies the fault plan" `Quick
            test_read_once_faults;
          Alcotest.test_case "4 MB frame in 4 KB writes: evented" `Quick
            test_large_frame_linear;
        ] );
    ]
