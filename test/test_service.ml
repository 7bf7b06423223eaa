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
  outcome : (Codar.Stats.service, exn) result option ref;
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
    svc.Codar.Stats.routes_computed

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
    svc.Codar.Stats.coalesced

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
   byte-identical. Both io models run the one lookup. *)
let test_memo_whitespace_variants () =
  let text =
    Qasm.Printer.to_string
      (Lazy.force (Option.get (Workloads.Suite.find "qft_4")).circuit)
  in
  let a = qasm_frame text and b = qasm_frame ("\n  " ^ text ^ "\n") in
  List.iter
    (fun io_model ->
      let sock = temp_sock "memo" in
      let server =
        start (Service.Server.config ~jobs:1 ~io_model ~socket_path:sock ())
      in
      let cold = request sock a in
      Alcotest.(check bool) "cold route ok" true (reply_ok cold);
      List.iter
        (fun frame ->
          Alcotest.(check string) "replay byte-identical" cold
            (request sock frame))
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
      Alcotest.(check int) "one cache entry" 1
        (counter [ "cache"; "entries" ] info);
      Alcotest.(check int) "two memo keys" 2
        (counter [ "cache"; "memo_keys" ] info);
      ignore (shutdown_and_join sock server))
    [ Service.Config.Evented; Service.Config.Threaded ]

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

(* ------------------------------------------------- evented loop details *)

(* The select-timeout computation is pure; pin that the nearest armed
   deadline bounds the sleep (no ticker thread to paper over a miss). *)
let test_select_timeout () =
  let st = Service.Evented.select_timeout in
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
    svc.Codar.Stats.conns_peak

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
    svc.Codar.Stats.conns_active;
  Alcotest.(check bool) "final peak at least two" true
    (svc.Codar.Stats.conns_peak >= 2)

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
    (svc.Codar.Stats.wb_stalls >= 1)

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
  ignore (shutdown_and_join sock server)

(* The threaded implementation stays selectable — and frame-for-frame
   interchangeable with the evented default. *)
let test_threaded_io_model () =
  let sock = temp_sock "threaded" in
  let server =
    start
      (Service.Server.config ~jobs:2 ~io_model:Service.Config.Threaded
         ~socket_path:sock ())
  in
  let cold = request sock route_qft4 in
  Alcotest.(check bool) "threaded cold route ok" true (reply_ok cold);
  let hit = request sock route_qft4 in
  Alcotest.(check string) "threaded replay byte-identical" cold hit;
  let stats = request sock {|{"op":"stats"}|} in
  Alcotest.(check int) "threaded counts connections" 3
    (counter [ "service"; "connections" ] stats);
  Alcotest.(check bool) "threaded counts bytes" true
    (counter [ "service"; "bytes_out" ] stats > 0);
  ignore (shutdown_and_join sock server);
  (* same request against an evented daemon: identical frame bytes *)
  let sock2 = temp_sock "threaded-x" in
  let server2 =
    start
      (Service.Server.config ~jobs:2 ~io_model:Service.Config.Evented
         ~socket_path:sock2 ())
  in
  let evented_cold = request sock2 route_qft4 in
  (* identical frames up to the record's wall-clock field — the routing
     result and serialisation agree; only the measured time differs *)
  let before_wall s =
    let pat = {|"wall_s":|} in
    let plen = String.length pat and slen = String.length s in
    let rec find i =
      if i + plen > slen then s
      else if String.equal (String.sub s i plen) pat then String.sub s 0 i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check string) "io models agree byte-for-byte (modulo wall_s)"
    (before_wall cold) (before_wall evented_cold);
  ignore (shutdown_and_join sock2 server2)

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
          Alcotest.test_case "cache survives restart" `Quick
            test_cache_survives_restart;
          Alcotest.test_case "memo: whitespace variants" `Quick
            test_memo_whitespace_variants;
          Alcotest.test_case "memo: after eviction" `Quick
            test_memo_after_eviction;
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
          Alcotest.test_case "threaded io-model" `Quick
            test_threaded_io_model;
        ] );
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_parse_frame_total;
          QCheck_alcotest.to_alcotest prop_parse_frame_mutations;
        ] );
    ]
