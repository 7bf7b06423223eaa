(* The robustness layer: deterministic fault injection (lib/faults),
   per-request deadlines, bounded-queue admission control and the
   client's seeded-jitter retry schedule.

   The soak test is the load-bearing one: a pinned-seed fault plan armed
   around a real in-process daemon, a fixed sequence of hostile
   connections, and the invariant that every connection ends in a typed
   error, a valid reply or a clean drop — never a wedged daemon — with
   the whole normalized transcript byte-identical across two runs of the
   same seed. *)

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

(* ------------------------------------------------------------- the plan *)

let test_plan_determinism () =
  let fires plan =
    Faults.with_plan plan (fun () ->
        List.init 200 (fun _ -> Faults.fire Faults.Frame_short_read))
  in
  let a = fires (Faults.soak ~seed:11) in
  let b = fires (Faults.soak ~seed:11) in
  Alcotest.(check (list bool)) "same seed, same decision sequence" a b;
  let c = fires (Faults.soak ~seed:12) in
  Alcotest.(check bool) "different seed, different sequence" true (a <> c);
  (* the soak rate is 10%: the 200-query hit count must be in sane range *)
  let hits = List.length (List.filter Fun.id a) in
  Alcotest.(check bool)
    (Printf.sprintf "soak rate plausible (%d/200 hits)" hits)
    true
    (hits > 5 && hits < 60)

let test_disarmed_is_inert () =
  Faults.disarm ();
  Alcotest.(check bool) "not armed" false (Faults.armed ());
  for _ = 1 to 1000 do
    Alcotest.(check bool) "disarmed fire" false
      (Faults.fire Faults.Pool_task_exn)
  done;
  Faults.pause Faults.Frame_stall;
  Faults.raise_if Faults.Pool_task_exn "never";
  Alcotest.(check (list (pair string int))) "no counters" [] (Faults.fired ());
  Alcotest.(check int) "no total" 0 (Faults.total_fired ())

let test_retry_schedule_pinned () =
  (* independently computed from the SplitMix64 spec; a drift here silently
     changes every client's backoff behaviour *)
  Alcotest.(check (list int))
    "retry schedule for (attempts 5, base 10 ms, seed 42)"
    [ 11; 39; 76; 148; 201 ]
    (Service.Client.retry_delays_ms ~attempts:5 ~base_delay_ms:10 ~seed:42);
  Alcotest.(check (list int))
    "zero attempts" []
    (Service.Client.retry_delays_ms ~attempts:0 ~base_delay_ms:10 ~seed:42);
  Alcotest.check_raises "negative attempts rejected"
    (Invalid_argument "Client.retry_delays_ms: attempts < 0") (fun () ->
      ignore
        (Service.Client.retry_delays_ms ~attempts:(-1) ~base_delay_ms:10
           ~seed:0))

(* ------------------------------------------------------------ fault soak *)

(* One daemon, one armed pinned-seed plan, [n] sequential requests over a
   persistent connection (reconnecting after a drop). Every request's
   outcome is normalized to a transcript line: "ok route <fingerprint>",
   "err <code>" or "drop" (server closed the connection without a reply —
   a legal outcome under injected EOF and write faults). Timing fields
   never enter the transcript, so two runs of the same seed must produce
   identical transcripts.

   One connection at a time matters for determinism: fault decisions are
   ordered by per-point query counters, and a second live connection
   thread would interleave its frame-point queries with the first's
   nondeterministically. *)
let soak_transcript ~seed ~n =
  let sock = temp_sock (Printf.sprintf "soak-%d" seed) in
  let server = start (Service.Server.config ~jobs:2 ~socket_path:sock ()) in
  let benches = [| "qft_4"; "ghz_8"; "qft_6" |] in
  let outcome_of reply =
    if reply_ok reply then
      match Json.member "fingerprint" (parse_reply reply) with
      | Some (Json.String fp) -> "ok route " ^ fp
      | _ -> "ok"
    else "err " ^ reply_code reply
  in
  let conn = ref None in
  let get_conn () =
    match !conn with
    | Some t -> t
    | None ->
      let t = Service.Client.connect sock in
      conn := Some t;
      t
  in
  let drop () =
    Option.iter Service.Client.close !conn;
    conn := None
  in
  let transcript =
    Faults.with_plan (Faults.soak ~seed) (fun () ->
        List.init n (fun i ->
            let frame =
              Printf.sprintf {|{"op":"route","bench":"%s","restarts":2}|}
                benches.(i mod Array.length benches)
            in
            match Service.Client.request (get_conn ()) frame with
            | reply -> outcome_of reply
            | exception Failure _ ->
              drop ();
              "drop"
            | exception Unix.Unix_error _ ->
              drop ();
              "drop"))
  in
  drop ();
  (* the daemon must still be fully alive once the plan is disarmed *)
  let ping = request sock {|{"op":"ping"}|} in
  Alcotest.(check bool) "daemon alive after the soak" true (reply_ok ping);
  ignore (shutdown_and_join sock server);
  transcript

let test_fault_soak_deterministic () =
  let n = 40 in
  let a = soak_transcript ~seed:1337 ~n in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "typed outcome: %s" line)
        true
        (line = "drop"
        || String.length line >= 2
           && (String.sub line 0 2 = "ok" || String.sub line 0 3 = "err"))
    )
    a;
  let b = soak_transcript ~seed:1337 ~n in
  Alcotest.(check (list string)) "transcript byte-identical per seed" a b;
  (* at least one fault-free success and, at this seed, at least one
     non-success — otherwise the soak is vacuous *)
  Alcotest.(check bool) "some successes" true
    (List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "ok") a);
  Alcotest.(check bool) "some injected failures" true
    (List.exists (fun l -> not (String.length l > 2 && String.sub l 0 2 = "ok")) a)

(* ------------------------------------------------------------- deadlines *)

(* a client that deliberately stalls mid-frame *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let read_reply fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      if Bytes.index_opt (Bytes.sub chunk 0 n) '\n' <> None then
        Buffer.contents buf
      else go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      Buffer.contents buf
  in
  String.trim (go ())

let test_stalled_frame_deadline () =
  let sock = temp_sock "stall" in
  let server =
    start (Service.Server.config ~jobs:1 ~timeout_ms:150 ~socket_path:sock ())
  in
  let fd = raw_connect sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* half a frame, then silence *)
      ignore (Unix.write_substring fd {|{"op":"ping"|} 0 12);
      let t0 = Unix.gettimeofday () in
      (* a healthy client on another connection is not blocked meanwhile *)
      let ping = request sock {|{"op":"ping"}|} in
      Alcotest.(check bool) "others unaffected" true (reply_ok ping);
      let reply = read_reply fd in
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check string) "stalled frame times out" "deadline_exceeded"
        (reply_code reply);
      Alcotest.(check bool)
        (Printf.sprintf "deadline honoured (waited %.0f ms)" (waited *. 1000.))
        true (waited < 5.));
  let svc = shutdown_and_join sock server in
  Alcotest.(check bool) "timeout counted" true
    (svc.Service.Server.timeouts >= 1)

(* a gate that blocks every routing job until released *)
let make_gate () =
  let m = Mutex.create () and c = Condition.create () in
  let open_ = ref false and entered = ref 0 in
  let hook _fp =
    Mutex.lock m;
    incr entered;
    Condition.broadcast c;
    while not !open_ do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let release () =
    Mutex.lock m;
    open_ := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  let wait_entered n =
    Mutex.lock m;
    while !entered < n do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  (hook, release, wait_entered)

let test_slow_route_deadline () =
  let sock = temp_sock "deadline" in
  let hook, release, _wait = make_gate () in
  let server =
    start
      (Service.Server.config ~jobs:1 ~timeout_ms:120 ~on_route_start:hook
         ~socket_path:sock ())
  in
  let reply = request sock {|{"op":"route","bench":"qft_4","restarts":2}|} in
  Alcotest.(check string) "blocked route exceeds its deadline"
    "deadline_exceeded" (reply_code reply);
  release ();
  (* the abandoned job still completes and lands in the cache *)
  let reply2 = request sock {|{"op":"route","bench":"qft_4","restarts":2}|} in
  Alcotest.(check bool) "route succeeds once unblocked" true (reply_ok reply2);
  let svc = shutdown_and_join sock server in
  Alcotest.(check bool) "timeout counted" true
    (svc.Service.Server.timeouts >= 1)

(* ---------------------------------------------------------- backpressure *)

let test_overload_and_retry () =
  let sock = temp_sock "overload" in
  let hook, release, wait_entered = make_gate () in
  let server =
    start
      (Service.Server.config ~jobs:1 ~queue_capacity:1 ~on_route_start:hook
         ~socket_path:sock ())
  in
  (* A occupies the single worker (blocked in the gate)... *)
  let replies = Array.make 2 "" in
  let t_a =
    Thread.create
      (fun () ->
        replies.(0) <- request sock {|{"op":"route","bench":"qft_4","restarts":2}|})
      ()
  in
  wait_entered 1;
  (* ...B fills the queue... *)
  let t_b =
    Thread.create
      (fun () ->
        replies.(1) <- request sock {|{"op":"route","bench":"ghz_8","restarts":2}|})
      ()
  in
  let rec settle tries =
    (* B's job is enqueued by its connection thread; give it a moment *)
    Thread.delay 0.02;
    if tries > 0 then
      match
        request sock {|{"op":"route","bench":"qft_6","restarts":2}|}
      with
      | reply when reply_ok reply -> Alcotest.fail "expected overloaded"
      | reply when reply_code reply = "overloaded" -> reply
      | _ -> settle (tries - 1)
    else Alcotest.fail "queue never filled"
  in
  (* ...and C is refused with the typed overload. *)
  let overloaded = settle 50 in
  Alcotest.(check string) "typed refusal" "overloaded"
    (reply_code overloaded);
  (* the retrying client outlasts the congestion *)
  let retry_reply = ref "" in
  let t_c =
    Thread.create
      (fun () ->
        Service.Client.with_connection sock (fun t ->
            retry_reply :=
              Service.Client.request_with_retry ~attempts:10 ~base_delay_ms:20
                ~seed:7 t {|{"op":"route","bench":"qft_6","restarts":2}|}))
      ()
  in
  Thread.delay 0.05;
  release ();
  Thread.join t_a;
  Thread.join t_b;
  Thread.join t_c;
  Alcotest.(check bool) "A eventually ok" true (reply_ok replies.(0));
  Alcotest.(check bool) "B eventually ok" true (reply_ok replies.(1));
  Alcotest.(check bool) "retrying client eventually ok" true
    (reply_ok !retry_reply);
  let svc = shutdown_and_join sock server in
  Alcotest.(check bool) "overload counted" true
    (svc.Service.Server.overloads >= 1)

(* --------------------------------------------------------------- stats *)

let test_stats_expose_faults () =
  let sock = temp_sock "faultstats" in
  let server = start (Service.Server.config ~jobs:1 ~socket_path:sock ()) in
  let stats =
    Faults.with_plan
      (Faults.plan ~seed:3 [ (Faults.Frame_short_read, 1.0) ])
      (fun () -> request sock {|{"op":"stats"}|})
  in
  (match Json.member "faults" (parse_reply stats) with
  | Some (Json.Obj fields) ->
    (match List.assoc_opt "frame_short_read" fields with
    | Some (Json.Int n) ->
      Alcotest.(check bool) "short reads counted" true (n >= 1)
    | _ -> Alcotest.fail "no frame_short_read counter in stats")
  | _ -> Alcotest.failf "stats reply without faults object: %S" stats);
  ignore (shutdown_and_join sock server)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_plan_determinism;
          Alcotest.test_case "disarmed is inert" `Quick test_disarmed_is_inert;
          Alcotest.test_case "retry schedule pinned" `Quick
            test_retry_schedule_pinned;
        ] );
      ( "soak",
        [
          Alcotest.test_case "pinned-seed soak, byte-identical" `Quick
            test_fault_soak_deterministic;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "stalled frame" `Quick test_stalled_frame_deadline;
          Alcotest.test_case "slow route" `Quick test_slow_route_deadline;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "overload + retry" `Quick test_overload_and_retry;
        ] );
      ( "stats",
        [
          Alcotest.test_case "faults counters exposed" `Quick
            test_stats_expose_faults;
        ] );
    ]
