(* The routing daemon's public entry point and its *threaded*
   implementation ([--io-model threaded]): a Unix-domain-socket accept
   loop, one thread per connection, and a single dispatcher thread that
   owns the Domain pool. [run] (bottom of file) dispatches on
   [Config.io_model] — the default is the select-loop server in
   [Evented]; this implementation is kept selectable so the two can be
   compared honestly under one test suite and one load generator.

   Concurrency layout — the part worth reading twice:

   - Connection threads never route. They parse frames, consult the cache
     and either answer immediately or park a [pending] job on a *bounded*
     queue and sleep on [cond].
   - The dispatcher thread is the only caller of [Pool.map] (the pool's
     contract: driven from one place). It drains the queue in batches of
     up to [jobs], routes them in parallel, publishes outcomes and
     broadcasts. A pool-level failure (e.g. an injected task exception
     propagating out of [Pool.map]) fails that batch with typed errors;
     it does not kill the dispatcher.
   - Duplicate fingerprints coalesce: a route request that finds its
     fingerprint in [inflight] does not enqueue a second job — it waits on
     the first's [pending] and is counted in [svc.coalesced]. Together
     with the cache this gives the service guarantee: one computation per
     distinct request content, ever, no matter how many clients race.
   - One mutex [m] guards queue + inflight + counters + connection
     registry; the cache has its own lock (always acquired after [m],
     never the reverse, so the order is acyclic).

   Robustness (docs/ROBUSTNESS.md):

   - Admission control: a route request arriving at a full queue is
     answered [overloaded] immediately instead of blocking its
     connection thread — the daemon sheds load; clients back off
     ([Client.request_with_retry]).
   - Deadlines: with [timeout_ms] set, a request frame that stalls
     mid-transmission and a route that waits or computes too long are
     both answered [deadline_exceeded]. A dedicated ticker thread
     broadcasts [cond] periodically so waiters can notice expiry
     (stdlib [Condition] has no timed wait).
   - Graceful drain: with [handle_signals] set, SIGTERM/SIGINT stop the
     accept loop, let in-flight work finish, persist the cache and
     return normally (exit 0 in the CLI).

   Degradation: malformed frames get an error reply; an oversized frame
   gets an error reply and the connection dropped (framing is lost);
   write failures to vanished clients are counted and survived; a router
   exception becomes a [route_failed] reply. Nothing kills the daemon but
   [shutdown] (which drains in-flight work, persists the cache when
   configured, and removes the socket). *)

module Json = Report.Json
open Config

type config = Config.t

let config = Config.make

type pending = {
  fp : string;
  spec : Engine.spec;
  mutable outcome : (Report.Record.t, string) result option;
}

type state = {
  cfg : config;
  mutable cache : Cache.t;
  svc : Codar.Stats.service;
  m : Mutex.t;
  cond : Condition.t;
  jobq : pending Queue.t;
  inflight : (string, pending) Hashtbl.t;
  mutable stop : bool;
  mutable term : bool; (* set (only) by the signal handler *)
  mutable conns : Unix.file_descr list;
  mutable active : int;
  listen_fd : Unix.file_descr;
  pool : Pool.t;
}

let locked st f =
  Mutex.lock st.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.m) f

(* ------------------------------------------------------------ dispatcher *)

let dispatch_batch st batch =
  let results =
    try
      Pool.map st.pool
        (fun _ p ->
          (match st.cfg.on_route_start with
          | Some hook -> hook p.fp
          | None -> ());
          try Ok (fst (Engine.route p.spec))
          with e -> Error (Printexc.to_string e))
        batch
    with e ->
      (* the pool itself failed (injected task exception, shut-down pool):
         every job of the batch gets a typed failure, the dispatcher
         lives on *)
      let msg = "pool failure: " ^ Printexc.to_string e in
      Array.map (fun _ -> Error msg) batch
  in
  locked st (fun () ->
      Array.iteri
        (fun i p ->
          let r = results.(i) in
          (match r with
          | Ok record ->
            Cache.add st.cache p.fp record;
            st.svc.Codar.Stats.routes_computed <-
              st.svc.Codar.Stats.routes_computed + 1
          | Error _ ->
            st.svc.Codar.Stats.routes_computed <-
              st.svc.Codar.Stats.routes_computed + 1);
          p.outcome <- Some r;
          Hashtbl.remove st.inflight p.fp)
        batch;
      Condition.broadcast st.cond)

let dispatcher st =
  let rec loop () =
    let batch =
      locked st (fun () ->
          while Queue.is_empty st.jobq && not st.stop do
            Condition.wait st.cond st.m
          done;
          let n = min (Queue.length st.jobq) (Pool.jobs st.pool) in
          let batch = Array.init n (fun _ -> Queue.pop st.jobq) in
          if n > 0 then Condition.broadcast st.cond (* queue space freed *);
          batch)
    in
    if Array.length batch > 0 then begin
      dispatch_batch st batch;
      loop ()
    end
    else if not st.stop then loop ()
    (* stop && empty queue: drain complete *)
  in
  try loop ()
  with e ->
    (* Should not happen (dispatch_batch contains pool failures), but never
       leave waiters hanging: fail everything outstanding. *)
    let msg = "dispatcher crashed: " ^ Printexc.to_string e in
    locked st (fun () ->
        Hashtbl.iter
          (fun _ p -> if p.outcome = None then p.outcome <- Some (Error msg))
          st.inflight;
        Hashtbl.reset st.inflight;
        Queue.clear st.jobq;
        st.stop <- true;
        Condition.broadcast st.cond)

(* The stdlib Condition has no timed wait; when deadlines are configured
   this thread broadcasts periodically so deadline-checking waiters get a
   chance to notice expiry. *)
let ticker st =
  let period =
    match st.cfg.timeout_ms with
    | Some ms -> Float.min 0.05 (float_of_int ms /. 1000. /. 4.)
    | None -> 0.05
  in
  let rec loop () =
    if not (locked st (fun () -> st.stop)) then begin
      Thread.delay period;
      locked st (fun () -> Condition.broadcast st.cond);
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------- requests *)

(* Resolve, look up, possibly enqueue, wait, and return one route result:
   a cache hit as it is (a [route] reply splices its stored JSON), anything
   else as a JSON item. *)
let route_result st ?line (rr : Protocol.route_req) =
  let resolution =
    Ops.lookup_route ~m:st.m ~cache:(fun () -> st.cache) ?line rr
      ~miss:(fun fp spec ->
        if st.stop then `Stopping
        else begin
          match Hashtbl.find_opt st.inflight fp with
          | Some p ->
            st.svc.Codar.Stats.coalesced <- st.svc.Codar.Stats.coalesced + 1;
            `Wait p
          | None ->
            (* admission control: a full queue is an immediate typed
               refusal, not a blocked connection thread *)
            if Queue.length st.jobq >= st.cfg.queue_capacity then begin
              st.svc.Codar.Stats.overloads <- st.svc.Codar.Stats.overloads + 1;
              `Overloaded
            end
            else begin
              let p = { fp; spec; outcome = None } in
              Hashtbl.add st.inflight fp p;
              Queue.add p st.jobq;
              Condition.broadcast st.cond;
              `Wait p
            end
        end)
  in
  match resolution with
  | `Hit hit -> `Hit hit
  | `Bad msg -> `Item (Ops.item_err Protocol.Bad_request msg)
  | `Stopping -> `Item Ops.stopping_item
  | `Overloaded -> `Item (Ops.overloaded_item st.cfg.queue_capacity)
  | `Wait p ->
    let deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
        st.cfg.timeout_ms
    in
    let outcome =
      locked st (fun () ->
          let rec wait () =
            match p.outcome with
            | Some o -> Some o
            | None -> (
              match deadline with
              | Some d when Unix.gettimeofday () >= d ->
                st.svc.Codar.Stats.timeouts <-
                  st.svc.Codar.Stats.timeouts + 1;
                None
              | Some _ | None ->
                Condition.wait st.cond st.m;
                wait ())
          in
          wait ())
    in
    `Item
      (match outcome with
      | None ->
        (* the job itself keeps running and will land in the cache; only
           this waiter gives up *)
        Ops.deadline_item st.cfg.timeout_ms
      | Some o -> Ops.outcome_item ~fp:p.fp o)

(* one route result as a JSON item (each [batch] element) *)
let route_item st rr =
  match route_result st rr with `Hit hit -> Ops.hit_item hit | `Item i -> i

let handle_cache st ?id action =
  Ops.handle_cache ~cfg:st.cfg
    ~get_cache:(fun () -> locked st (fun () -> st.cache))
    ~set_cache:(fun cache -> locked st (fun () -> st.cache <- cache))
    ?id action

let initiate_stop st =
  locked st (fun () ->
      if not st.stop then begin
        st.stop <- true;
        (* break the accept loop *)
        (try Unix.shutdown st.listen_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        (* break idle connection reads; pending writes still flush *)
        List.iter
          (fun fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          st.conns;
        Condition.broadcast st.cond
      end)

(* Returns the reply frame plus what to do with the connection next. *)
let handle_request st ?id ~line req =
  match req with
  | Protocol.Ping -> (Ops.ping_frame ?id (), `Keep)
  | Protocol.Stats ->
    let svc_json, cache_counters =
      locked st (fun () ->
          ( Protocol.service_counters_to_json st.svc,
            Protocol.cache_counters_to_json (Cache.counters st.cache) ))
    in
    (Ops.stats_frame ?id ~jobs:st.cfg.jobs ~svc_json ~cache_counters (), `Keep)
  | Protocol.Route rr ->
    ( (match route_result st ?line:(Ops.line_key ?id line) rr with
      | `Hit hit -> Ops.hit_frame ?id hit
      | `Item item -> Ops.route_frame ?id item),
      `Keep )
  | Protocol.Batch rrs ->
    (* Resolution and waiting happen per item; items keep their order.
       Under admission control a batch bigger than the queue's free space
       sees [overloaded] items rather than blocking the connection. *)
    (Ops.batch_frame ?id (List.map (route_item st) rrs), `Keep)
  | Protocol.Cache action -> (
    match handle_cache st ?id action with
    | `Reply frame -> (frame, `Keep)
    | `Error (code, msg) -> (Protocol.error_frame ?id code msg, `Keep))
  | Protocol.Shutdown -> (Ops.shutdown_frame ?id (), `Shutdown)

(* ----------------------------------------------------------- connections *)

let count_reply st frame =
  locked st (fun () ->
      if Protocol.frame_ok frame then
        st.svc.Codar.Stats.responses_ok <- st.svc.Codar.Stats.responses_ok + 1
      else
        st.svc.Codar.Stats.responses_err <-
          st.svc.Codar.Stats.responses_err + 1)

let handle_connection st fd =
  let reader =
    Frame.reader ~max_bytes:st.cfg.max_request_bytes ~inject:true fd
  in
  let timeout_s =
    Option.map (fun ms -> float_of_int ms /. 1000.) st.cfg.timeout_ms
  in
  let send frame =
    (* count before writing: a client that has its reply in hand (and
       immediately asks for stats on another connection) must already see
       these bytes in the counters *)
    locked st (fun () ->
        st.svc.Codar.Stats.bytes_out <-
          st.svc.Codar.Stats.bytes_out + String.length frame + 1);
    count_reply st frame;
    match Frame.write ~inject:true fd frame with
    | () -> true
    | exception Unix.Unix_error _ ->
      locked st (fun () ->
          st.svc.Codar.Stats.disconnects <- st.svc.Codar.Stats.disconnects + 1);
      false
  in
  let rec loop () =
    match Frame.read ?timeout_s reader with
    | `Eof -> ()
    | `Timeout ->
      (* stalled mid-frame: answer, count, drop (framing is suspect) *)
      locked st (fun () ->
          st.svc.Codar.Stats.timeouts <- st.svc.Codar.Stats.timeouts + 1);
      ignore
        (send
           (Protocol.error_frame Protocol.Deadline_exceeded
              (Printf.sprintf "request frame not completed within %d ms"
                 (Option.value st.cfg.timeout_ms ~default:0))))
    | `Oversized ->
      ignore
        (send
           (Protocol.error_frame Protocol.Oversized
              (Printf.sprintf "request exceeds %d bytes"
                 st.cfg.max_request_bytes)))
      (* framing is lost: drop the connection *)
    | `Line "" -> loop () (* tolerate keep-alive blank lines *)
    | `Line line -> (
      (* approximate: the line plus its newline (the blocking reader does
         not expose raw byte counts; the evented server counts exactly) *)
      locked st (fun () ->
          st.svc.Codar.Stats.bytes_in <-
            st.svc.Codar.Stats.bytes_in + String.length line + 1);
      match Ops.find_line ~m:st.m ~cache:(fun () -> st.cache) line with
      | Some hit ->
        (* a repeated id-less route frame, answered from its bytes *)
        locked st (fun () ->
            st.svc.Codar.Stats.requests <- st.svc.Codar.Stats.requests + 1);
        if send (Ops.hit_frame hit) then loop ()
      | None -> (
        match Protocol.parse_frame line with
        | Error (id, code, msg) ->
          if send (Protocol.error_frame ?id code msg) then loop ()
        | Ok (id, req) ->
          locked st (fun () ->
              st.svc.Codar.Stats.requests <- st.svc.Codar.Stats.requests + 1);
          (* a request whose handling raises is answered, like the evented
             loop does, before the connection serves on *)
          let frame, next =
            match handle_request st ?id ~line req with
            | reply -> reply
            | exception e ->
              ( Protocol.error_frame ?id Protocol.Bad_request
                  ("request failed: " ^ Printexc.to_string e),
                `Keep )
          in
          let alive = send frame in
          (match next with `Shutdown -> initiate_stop st | `Keep -> ());
          if alive && next = `Keep then loop ()))
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      locked st (fun () ->
          st.conns <- List.filter (fun c -> c <> fd) st.conns;
          st.active <- st.active - 1;
          st.svc.Codar.Stats.conns_active <-
            st.svc.Codar.Stats.conns_active - 1;
          Condition.broadcast st.cond))
    (fun () -> try loop () with _ -> ())

(* ------------------------------------------------------------------ run *)

let run_threaded ?on_ready cfg =
  (* a vanished client must be an EPIPE error, not a process kill *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let cache = Ops.load_or_create_cache cfg in
  let listen_fd = Ops.bind_listen_socket cfg in
  let st =
    {
      cfg;
      cache;
      svc = Codar.Stats.service_create ();
      m = Mutex.create ();
      cond = Condition.create ();
      jobq = Queue.create ();
      inflight = Hashtbl.create 16;
      stop = false;
      term = false;
      conns = [];
      active = 0;
      listen_fd;
      pool = Pool.create ~jobs:cfg.jobs;
    }
  in
  if cfg.handle_signals then begin
    (* The handler body runs at an OCaml safepoint but possibly on a
       thread that holds [st.m], so it must stay lock-free: set the flag
       and break [accept] with a syscall; the accept loop does the
       orderly [initiate_stop]. *)
    let handler _ =
      st.term <- true;
      try Unix.shutdown st.listen_fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error _ -> ()
    in
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle handler)
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigterm; Sys.sigint ]
  end;
  let dispatcher_thread = Thread.create dispatcher st in
  let ticker_thread =
    match cfg.timeout_ms with
    | Some _ -> Some (Thread.create ticker st)
    | None -> None
  in
  (match on_ready with Some f -> f () | None -> ());
  let rec accept_loop () =
    match Unix.accept listen_fd with
    | fd, _ ->
      locked st (fun () ->
          st.conns <- fd :: st.conns;
          st.active <- st.active + 1;
          st.svc.Codar.Stats.connections <-
            st.svc.Codar.Stats.connections + 1;
          st.svc.Codar.Stats.conns_active <-
            st.svc.Codar.Stats.conns_active + 1;
          if st.svc.Codar.Stats.conns_active > st.svc.Codar.Stats.conns_peak
          then
            st.svc.Codar.Stats.conns_peak <- st.svc.Codar.Stats.conns_active);
      ignore (Thread.create (handle_connection st) fd);
      accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if st.term then initiate_stop st else accept_loop ()
    | exception Unix.Unix_error _ when st.term ->
      (* SIGTERM/SIGINT: stop accepting, drain, persist, return *)
      initiate_stop st
    | exception Unix.Unix_error _ when locked st (fun () -> st.stop) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      (* unexpected accept failure: shut down rather than spin *)
      Printf.eprintf "codar serve: accept failed: %s\n%!"
        (Unix.error_message e);
      initiate_stop st
  in
  accept_loop ();
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* wait for every connection thread, then let the dispatcher drain *)
  locked st (fun () ->
      while st.active > 0 do
        Condition.wait st.cond st.m
      done;
      Condition.broadcast st.cond);
  Thread.join dispatcher_thread;
  Option.iter Thread.join ticker_thread;
  Pool.shutdown st.pool;
  Ops.save_cache_at_exit cfg st.cache;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  st.svc

let run ?on_ready cfg =
  match cfg.io_model with
  | Config.Evented -> Evented.run ?on_ready cfg
  | Config.Threaded -> run_threaded ?on_ready cfg
