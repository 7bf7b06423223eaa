(* The routing daemon: one I/O thread multiplexing every client socket
   through [Unix.select], non-blocking fds, and explicit per-connection
   read/write buffers. A dispatcher thread is the only caller of
   [Pool.map] (the pool's contract: driven from one place): it drains the
   bounded job queue in batches of up to [jobs], routes them on the
   Domain pool, publishes the outcomes and wakes the loop over a
   self-pipe.

   Per-connection state machine:

     reading ──complete frame──▶ queued reply unit ──routing──▶ resolved
        ▲                                                        │
        └──────────── reply bytes drained to the socket ◀────────┘

   - Inbound bytes accumulate in [input] (a {!Frame.framer}: linear in
     the bytes received, however they are split into reads); complete
     lines are taken from it and handled in order. Replies are *units* in
     [replies]: an immediate frame ([Ready]) or a route/batch whose slots
     still wait on an in-flight [pending]. Units serialise strictly in
     FIFO order, so pipelined clients get answers in request order.
   - Outbound bytes wait in [obuf]/[out_cur]; the loop writes when
     the socket can take more. [obytes] over the high-watermark marks
     the connection stalled: it stops being read *and* stops having its
     buffered lines processed — backpressure reaches all the way to the
     kernel's receive queue of the slow consumer, and other connections
     never notice ([svc.wb_stalls] counts the episodes).
   - Both deadline kinds fold into the select timeout: the earliest of
     every mid-frame read deadline ([frame_start] + timeout) and every
     waiting slot's route deadline bounds the sleep, so expiry is
     observed without any other thread.
   - Duplicate fingerprints coalesce: a route whose fingerprint is in
     [inflight] waits on the first one's [pending] ([svc.coalesced]), so
     with the cache there is one computation per distinct request
     content. A route that finds the queue full is answered [overloaded]
     at once (admission control).
   - [m] guards what the dispatcher shares with the loop: the job queue,
     [inflight], the cache pointer and the counters the dispatcher bumps.
     The cache has its own lock, always taken after [m]. Connections and
     the other counters belong to the loop thread.

   Fault injection: reads go through {!Frame.read_once}, which applies
   the read-side points; [Frame_write_error] is queried once per
   enqueued reply frame rather than once per [write] syscall. The
   fault-soak transcript pins this order. *)

module Json = Report.Json

type config = {
  socket_path : string;
  jobs : int;
  cache_entries : int;
  cache_bytes : int option;
  cache_file : string option;
  max_request_bytes : int;
  queue_capacity : int;
  timeout_ms : int option;
  handle_signals : bool;
  write_watermark_bytes : int;
  max_connections : int;
  on_route_start : (string -> unit) option;
}

(* [Unix.select] rejects fds >= FD_SETSIZE (1024 on Linux), so the loop
   must bound its concurrent connections well under that, leaving
   headroom for the listen fd, the self-pipe, std streams and transient
   fds (cache persistence). *)
let default_max_connections = 960

let config ?(jobs = 1) ?(cache_entries = 1024) ?cache_bytes ?cache_file
    ?(max_request_bytes = Frame.default_max_bytes) ?(queue_capacity = 64)
    ?timeout_ms ?(handle_signals = false)
    ?(write_watermark_bytes = 256 * 1024)
    ?(max_connections = default_max_connections) ?on_route_start
    ~socket_path () =
  if jobs < 1 then invalid_arg "Server.config: jobs < 1";
  if queue_capacity < 1 then invalid_arg "Server.config: queue_capacity < 1";
  (match timeout_ms with
  | Some ms when ms < 1 -> invalid_arg "Server.config: timeout_ms < 1"
  | Some _ | None -> ());
  if write_watermark_bytes < 1 then
    invalid_arg "Server.config: write_watermark_bytes < 1";
  if max_connections < 1 then
    invalid_arg "Server.config: max_connections < 1";
  {
    socket_path;
    jobs;
    cache_entries;
    cache_bytes;
    cache_file;
    max_request_bytes;
    queue_capacity;
    timeout_ms;
    handle_signals;
    write_watermark_bytes;
    max_connections;
    on_route_start;
  }

(* A computed route's outcome is published as the cache entry: its record
   JSON, encoded once on the routing domain, is what the cache stores and
   what a top-level reply splices in. *)
type pending = {
  fp : string;
  spec : Engine.spec;
  mutable outcome : (Cache.hit, string) result option;
}

(* A route's answer: an item, or a record with its stored JSON — written
   around that JSON in a top-level reply, lifted to an item in a batch. *)
type answer = Item of Json.t | Stored of Cache.hit

(* One route inside a reply unit: either already answered, or waiting on
   an in-flight computation (with its own deadline). *)
type slot = {
  mutable answer : answer option;
  mutable pend : pending option;
  mutable slot_deadline : float option;
}

type reply =
  | Ready of string
  | Route_r of { id : Json.t option; slot : slot }
  | Batch_r of { id : Json.t option; slots : slot array }

type conn = {
  fd : Unix.file_descr;
  input : Frame.framer;  (* unhandled lines and the partial frame *)
  mutable frame_start : float option;
  replies : reply Queue.t;
  mutable out_cur : string;  (* in-flight write snapshot; "" = none *)
  mutable out_pos : int;
  obuf : Buffer.t;  (* replies accumulated since the last snapshot *)
  mutable obytes : int;  (* unsent bytes across out_cur + obuf *)
  mutable reading : bool;  (* false once EOF / drop decided *)
  mutable stalled : bool;  (* paused by the write watermark *)
  mutable close_after_flush : bool;
  mutable dirty : bool;  (* queued for a process/service pass *)
}

(* [routes_computed] is bumped by the dispatcher thread under the server
   lock, every other counter by the loop thread, which also reads them
   all for a [stats] reply. *)
type counters = {
  mutable requests : int;
  mutable responses_ok : int;
  mutable responses_err : int;
  mutable routes_computed : int;
  mutable coalesced : int;
  mutable connections : int;
  mutable disconnects : int;
  mutable timeouts : int;
  mutable overloads : int;
  mutable conns_active : int;
  mutable conns_peak : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable wb_stalls : int;
}

let pp_counters ppf s =
  Fmt.pf ppf
    "service: %d requests (%d ok, %d err); %d routes computed, %d \
     coalesced; %d connections (%d active, peak %d), %d disconnects; %d \
     timeouts, %d overloads; %d B in, %d B out, %d write stalls"
    s.requests s.responses_ok s.responses_err s.routes_computed s.coalesced
    s.connections s.conns_active s.conns_peak s.disconnects s.timeouts
    s.overloads s.bytes_in s.bytes_out s.wb_stalls

(* The [stats] reply's "service" object, keys in field order (the
   fault-soak transcript pins these bytes). *)
let counters_to_json s =
  Json.Obj
    [
      ("requests", Json.Int s.requests);
      ("responses_ok", Json.Int s.responses_ok);
      ("responses_err", Json.Int s.responses_err);
      ("routes_computed", Json.Int s.routes_computed);
      ("coalesced", Json.Int s.coalesced);
      ("connections", Json.Int s.connections);
      ("disconnects", Json.Int s.disconnects);
      ("timeouts", Json.Int s.timeouts);
      ("overloads", Json.Int s.overloads);
      ("conns_active", Json.Int s.conns_active);
      ("conns_peak", Json.Int s.conns_peak);
      ("bytes_in", Json.Int s.bytes_in);
      ("bytes_out", Json.Int s.bytes_out);
      ("wb_stalls", Json.Int s.wb_stalls);
    ]

type state = {
  cfg : config;
  mutable cache : Cache.t;
  svc : counters;
  m : Mutex.t;
  cond : Condition.t;
  jobq : pending Queue.t;
  inflight : (string, pending) Hashtbl.t;
  mutable stop : bool;
  mutable term : bool;  (* set (only) by the signal handler *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  listen_fd : Unix.file_descr;
  pool : Pool.t;
  wake_r : Unix.file_descr;  (* self-pipe: dispatcher -> loop *)
  wake_w : Unix.file_descr;
  chunk : Bytes.t;  (* loop-thread read scratch *)
  dirtyq : conn Queue.t;  (* conns with an event to service this turn *)
  mutable sweep_pending : bool;  (* the self-pipe fired: outcomes landed *)
  mutable accept_pause_until : float;
      (* fd exhaustion (EMFILE/ENFILE): stop polling the listen fd until
         this instant instead of busy-spinning on a readable fd we
         cannot accept from *)
}

let locked st f =
  Mutex.lock st.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.m) f

let wake st =
  try ignore (Unix.write_substring st.wake_w "x" 0 1)
  with Unix.Unix_error _ -> () (* full pipe still wakes the loop *)

(* Mark a connection as having work; the loop drains [dirtyq] each
   iteration instead of scanning every connection. Loop-thread only. *)
let touch st c =
  if not c.dirty then begin
    c.dirty <- true;
    Queue.add c st.dirtyq
  end

(* Pure timeout computation, unit-tested: seconds select may sleep given
   the absolute deadlines currently armed. [-1.] = sleep forever. *)
let select_timeout ~now deadlines =
  match deadlines with
  | [] -> -1.
  | ds ->
    let nearest = List.fold_left Float.min infinity ds in
    Float.max 0. (nearest -. now)

(* ------------------------------------------------------------ dispatcher *)

let dispatch_batch st batch =
  let results =
    try
      Pool.map st.pool
        (fun _ p ->
          (match st.cfg.on_route_start with
          | Some hook -> hook p.fp
          | None -> ());
          try
            Ok
              (Cache.hit_of_record ~fingerprint:p.fp
                 (Engine.record p.spec))
          with e -> Error (Printexc.to_string e))
        batch
    with e ->
      let msg = "pool failure: " ^ Printexc.to_string e in
      Array.map (fun _ -> Error msg) batch
  in
  locked st (fun () ->
      Array.iteri
        (fun i p ->
          (match results.(i) with
          | Ok hit -> Cache.add_hit st.cache hit
          | Error _ -> ());
          st.svc.routes_computed <- st.svc.routes_computed + 1;
          p.outcome <- Some results.(i);
          Hashtbl.remove st.inflight p.fp)
        batch);
  wake st

let dispatcher st =
  let rec loop () =
    let batch =
      locked st (fun () ->
          while Queue.is_empty st.jobq && not st.stop do
            Condition.wait st.cond st.m
          done;
          let n = min (Queue.length st.jobq) (Pool.jobs st.pool) in
          Array.init n (fun _ -> Queue.pop st.jobq))
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
    let msg = "dispatcher crashed: " ^ Printexc.to_string e in
    locked st (fun () ->
        Hashtbl.iter
          (fun _ p -> if p.outcome = None then p.outcome <- Some (Error msg))
          st.inflight;
        Hashtbl.reset st.inflight;
        Queue.clear st.jobq;
        st.stop <- true);
    wake st

(* ------------------------------------------------------- reply plumbing *)

let count_reply st frame =
  if Protocol.frame_ok frame then
    st.svc.responses_ok <- st.svc.responses_ok + 1
  else
    st.svc.responses_err <- st.svc.responses_err + 1

let close_conn st c =
  Hashtbl.remove st.conns c.fd;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  st.svc.conns_active <- st.svc.conns_active - 1

let disconnect st c =
  st.svc.disconnects <- st.svc.disconnects + 1;
  close_conn st c

(* Append one serialised frame to the connection's output. Queries the
   write fault point here, once per frame, and treats a fired fault as
   the vanished client it simulates. Returns [false] when the connection
   died. *)
let emit st c frame =
  if Faults.fire Faults.Frame_write_error then begin
    disconnect st c;
    false
  end
  else begin
    Buffer.add_string c.obuf frame;
    Buffer.add_char c.obuf '\n';
    c.obytes <- c.obytes + String.length frame + 1;
    count_reply st frame;
    true
  end

let slot_ready s = s.answer <> None

let reply_ready = function
  | Ready _ -> true
  | Route_r { slot; _ } -> slot_ready slot
  | Batch_r { slots; _ } -> Array.for_all slot_ready slots

(* Serialise every complete head unit, preserving FIFO reply order. *)
let rec drain_replies st c =
  if
    Hashtbl.mem st.conns c.fd
    && (not (Queue.is_empty c.replies))
    && reply_ready (Queue.peek c.replies)
  then begin
    let alive =
      match Queue.pop c.replies with
      | Ready frame -> emit st c frame
      | Route_r { id; slot } ->
        emit st c
          (match Option.get slot.answer with
          | Stored hit -> Ops.hit_frame ?id hit
          | Item item -> Ops.route_frame ?id item)
      | Batch_r { id; slots } ->
        let item s =
          match Option.get s.answer with
          | Stored hit -> Ops.hit_item hit
          | Item item -> item
        in
        let items = Array.to_list (Array.map item slots) in
        emit st c (Ops.batch_frame ?id items)
    in
    if alive then drain_replies st c
  end

(* Write as much buffered output as the socket takes right now. The
   snapshot covers everything accumulated since the last one, so a
   pipelined connection's worth of replies goes out in one syscall; a
   slow consumer dribbles the same snapshot without re-copying it. *)
let rec flush_out st c =
  if c.out_cur = "" && Buffer.length c.obuf > 0 then begin
    c.out_cur <- Buffer.contents c.obuf;
    Buffer.clear c.obuf;
    c.out_pos <- 0
  end;
  if c.out_cur = "" then `Idle
  else
    let len = String.length c.out_cur - c.out_pos in
    match Frame.write_once c.fd c.out_cur ~pos:c.out_pos ~len with
    | `Wrote n ->
      st.svc.bytes_out <- st.svc.bytes_out + n;
      c.obytes <- c.obytes - n;
      c.out_pos <- c.out_pos + n;
      if c.out_pos = String.length c.out_cur then begin
        c.out_cur <- "";
        c.out_pos <- 0
      end;
      flush_out st c
    | `Again -> `More
    | exception Unix.Unix_error _ -> `Gone

(* ------------------------------------------------------ request handling *)

(* Resolve a route request without blocking: a cache hit, refusal or
   bad request resolves now; otherwise the slot waits on the in-flight
   [pending] (enqueueing a fresh one under admission control). A hit
   stays a [`Hit], so a route reply can splice its stored JSON. *)
let resolve_route st ?line (rr : Protocol.route_req) =
  match
    Ops.lookup_route ~m:st.m ~cache:(fun () -> st.cache) ?line rr
      ~miss:(fun fp spec ->
        if st.stop then `Done Ops.stopping_item
        else begin
          match Hashtbl.find_opt st.inflight fp with
          | Some p ->
            st.svc.coalesced <- st.svc.coalesced + 1;
            `Wait p
          | None ->
            (* admission control: a full queue is an immediate typed
               refusal, never a parked request *)
            if Queue.length st.jobq >= st.cfg.queue_capacity then begin
              st.svc.overloads <- st.svc.overloads + 1;
              `Done (Ops.overloaded_item st.cfg.queue_capacity)
            end
            else begin
              let p = { fp; spec; outcome = None } in
              Hashtbl.add st.inflight fp p;
              Queue.add p st.jobq;
              Condition.broadcast st.cond;
              `Wait p
            end
        end)
  with
  | `Bad msg -> `Done (Ops.item_err Protocol.Bad_request msg)
  | (`Hit _ | `Done _ | `Wait _) as r -> r

let slot_of st now = function
  | `Hit hit ->
    { answer = Some (Stored hit); pend = None; slot_deadline = None }
  | `Done item ->
    { answer = Some (Item item); pend = None; slot_deadline = None }
  | `Wait p ->
    let deadline =
      Option.map
        (fun ms -> now +. (float_of_int ms /. 1000.))
        st.cfg.timeout_ms
    in
    { answer = None; pend = Some p; slot_deadline = deadline }

let initiate_stop st =
  locked st (fun () ->
      if not st.stop then begin
        st.stop <- true;
        (try Unix.shutdown st.listen_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        Condition.broadcast st.cond
      end)

let load_cache cfg path =
  Cache.load ?max_bytes:cfg.cache_bytes ~max_entries:cfg.cache_entries path

let cache_info_json cache =
  Json.Obj
    [
      ("entries", Json.Int (Cache.length cache));
      ("bytes", Json.Int (Cache.bytes cache));
      ("memo_keys", Json.Int (Cache.memo_length cache));
      ("max_entries", Json.Int (Cache.max_entries cache));
      ( "max_bytes",
        match Cache.max_bytes cache with
        | Some b -> Json.Int b
        | None -> Json.Null );
      ("counters", Protocol.cache_counters_to_json (Cache.counters cache));
    ]

(* The [cache] op (info/clear/save/load). The loop thread is the only
   writer of the cache pointer; it reads and swaps it under [m], which
   the dispatcher holds while it adds a record. *)
let handle_cache st ?id action =
  let cache () = locked st (fun () -> st.cache) in
  let reply action fields =
    Protocol.ok_frame ?id ~op:"cache" (("action", Json.String action) :: fields)
  in
  let with_path file k =
    match (file, st.cfg.cache_file) with
    | Some path, _ | None, Some path -> k path
    | None, None ->
      Protocol.error_frame ?id Protocol.Bad_request
        "no cache file given and none configured"
  in
  match action with
  | Protocol.Info -> reply "info" [ ("cache", cache_info_json (cache ())) ]
  | Protocol.Clear ->
    Cache.clear (cache ());
    reply "clear" []
  | Protocol.Save file ->
    with_path file (fun path ->
        let cache = cache () in
        match Cache.save cache path with
        | () ->
          reply "save"
            [
              ("file", Json.String path);
              ("entries", Json.Int (Cache.length cache));
            ]
        | exception Sys_error msg -> Protocol.error_frame ?id Protocol.Io msg)
  | Protocol.Load file ->
    with_path file (fun path ->
        match load_cache st.cfg path with
        | Error e ->
          Protocol.error_frame ?id Protocol.Io (Cache.load_error_to_string e)
        | Ok cache ->
          locked st (fun () -> st.cache <- cache);
          reply "load"
            [
              ("file", Json.String path);
              ("entries", Json.Int (Cache.length cache));
            ])

let handle_request st c now ?id ~line req =
  match req with
  | Protocol.Ping ->
    Queue.add (Ready (Ops.ping_frame ?id ())) c.replies
  | Protocol.Stats ->
    let svc_json, cache_counters =
      locked st (fun () ->
          ( counters_to_json st.svc,
            Protocol.cache_counters_to_json (Cache.counters st.cache) ))
    in
    Queue.add
      (Ready
         (Ops.stats_frame ?id ~jobs:st.cfg.jobs ~svc_json ~cache_counters ()))
      c.replies
  | Protocol.Route rr -> (
    match resolve_route st ?line:(Ops.line_key ?id line) rr with
    | `Hit hit ->
      Queue.add
        (Ready (Ops.hit_frame ?id hit))
        c.replies
    | `Done item ->
      Queue.add
        (Ready (Ops.route_frame ?id item))
        c.replies
    | `Wait _ as w ->
      Queue.add (Route_r { id; slot = slot_of st now w }) c.replies)
  | Protocol.Batch rrs ->
    let slots =
      Array.of_list
        (List.map (fun rr -> slot_of st now (resolve_route st rr)) rrs)
    in
    Queue.add (Batch_r { id; slots }) c.replies
  | Protocol.Cache action ->
    Queue.add (Ready (handle_cache st ?id action)) c.replies
  | Protocol.Shutdown ->
    Queue.add
      (Ready (Ops.shutdown_frame ?id ()))
      c.replies;
    (* nothing after shutdown is read *)
    c.reading <- false;
    Frame.clear c.input;
    c.frame_start <- None;
    c.close_after_flush <- true;
    initiate_stop st

let handle_line st c now line =
  if line = "" then () (* tolerate keep-alive blank lines *)
  else
    match Ops.find_line ~m:st.m ~cache:(fun () -> st.cache) line with
    | Some hit ->
      (* a repeated id-less route frame, answered from its bytes *)
      st.svc.requests <- st.svc.requests + 1;
      Queue.add (Ready (Ops.hit_frame hit)) c.replies
    | None -> (
      match Protocol.parse_frame line with
      | Error (id, code, msg) ->
        Queue.add
          (Ready (Protocol.error_frame ?id code msg))
          c.replies
      | Ok (id, req) -> (
        st.svc.requests <- st.svc.requests + 1;
        (* the per-request barrier: this runs on the loop's own thread, so a
           request whose handling raises is answered here, and the loop
           serves on, rather than the exception stopping the daemon *)
        try handle_request st c now ?id ~line req
        with e ->
          Queue.add
            (Ready
               (Protocol.error_frame ?id Protocol.Bad_request
                  ("request failed: " ^ Printexc.to_string e)))
            c.replies))

(* The connection violated framing (oversized frame or a mid-frame
   stall): answer once, stop reading, close after the answer flushes. *)
let poison _st c frame =
  Queue.add (Ready frame) c.replies;
  c.reading <- false;
  Frame.clear c.input;
  c.frame_start <- None;
  c.close_after_flush <- true

let oversized st c =
  poison st c
    (Protocol.error_frame Protocol.Oversized
       (Printf.sprintf "request exceeds %d bytes" st.cfg.max_request_bytes))

(* Handle the buffered lines in order, as far as backpressure allows;
   the framer enforces the frame cap on what is buffered. *)
let rec process_input st c now =
  if (not c.stalled) && Hashtbl.mem st.conns c.fd then
    match Frame.next c.input with
    | `Line line ->
      (* a leftover partial frame restarts the clock rather than clearing
         it: a pipelined chunk ending mid-frame must still observe the
         read deadline *)
      c.frame_start <- (if Frame.buffered c.input > 0 then Some now else None);
      handle_line st c now line;
      process_input st c now
    | `Oversized -> oversized st c
    | `Partial ->
      (* an EOF'd connection's unterminated trailer is a final frame
         (lenient EOF framing, like {!Frame.read}) *)
      if (not c.reading) && Frame.buffered c.input > 0 then begin
        c.frame_start <- None;
        handle_line st c now (Frame.take_rest c.input)
      end

let read_conn st c now =
  match Frame.read_once c.fd st.chunk with
  | `Again -> ()
  | `Eof ->
    c.reading <- false;
    c.close_after_flush <- true;
    touch st c
  | `Data n ->
    st.svc.bytes_in <- st.svc.bytes_in + n;
    Frame.feed c.input st.chunk 0 n;
    (* invariant: a reading connection with buffered bytes always has an
       armed clock ([process_input] re-arms it for leftover partials) *)
    if c.frame_start = None then c.frame_start <- Some now;
    touch st c

(* Resolve waiting slots against published outcomes and route deadlines.
   One lock acquisition covers the whole sweep. *)
let sweep_slots st now =
  let changed = ref false in
  let check s =
    match s.pend with
    | None -> ()
    | Some p -> (
      match p.outcome with
      | Some o ->
        s.answer <-
          Some
            (match o with
            | Ok hit -> Stored hit
            | Error msg -> Item (Ops.item_err Protocol.Route_failed msg));
        s.pend <- None;
        s.slot_deadline <- None;
        changed := true
      | None -> (
        match s.slot_deadline with
        | Some d when now >= d ->
          (* the job itself keeps running and will land in the cache;
             only this waiter gives up *)
          st.svc.timeouts <- st.svc.timeouts + 1;
          s.answer <- Some (Item (Ops.deadline_item st.cfg.timeout_ms));
          s.pend <- None;
          s.slot_deadline <- None;
          changed := true
        | Some _ | None -> ()))
  in
  locked st (fun () ->
      Hashtbl.iter
        (fun _ c ->
          changed := false;
          Queue.iter
            (function
              | Ready _ -> ()
              | Route_r { slot; _ } -> check slot
              | Batch_r { slots; _ } -> Array.iter check slots)
            c.replies;
          if !changed then touch st c)
        st.conns)

(* Mid-frame read deadlines: a partial frame older than the timeout is
   answered [deadline_exceeded] and the connection dropped (framing is
   suspect once its bytes are abandoned). A stalled connection is
   exempt — the server itself paused reading it at the write watermark,
   so the wait is not the client's fault; [service_conn] restarts its
   clock when the stall lifts. *)
let expire_frames st now =
  match st.cfg.timeout_ms with
  | None -> ()
  | Some ms ->
    let limit = float_of_int ms /. 1000. in
    let expired =
      Hashtbl.fold
        (fun _ c acc ->
          match c.frame_start with
          | Some fs when c.reading && (not c.stalled) && now -. fs >= limit
            ->
            c :: acc
          | _ -> acc)
        st.conns []
    in
    List.iter
      (fun c ->
        locked st (fun () ->
            st.svc.timeouts <- st.svc.timeouts + 1);
        poison st c
          (Protocol.error_frame Protocol.Deadline_exceeded
             (Printf.sprintf "request frame not completed within %d ms" ms));
        touch st c)
      expired

(* Serialise complete replies, push bytes, apply the watermark, close
   when flushed-and-done. Safe to call repeatedly. *)
let service_conn st c now =
  if Hashtbl.mem st.conns c.fd then begin
    drain_replies st c;
    if Hashtbl.mem st.conns c.fd then begin
      (match flush_out st c with
      | `Gone -> disconnect st c
      | `Idle | `More -> ());
      if Hashtbl.mem st.conns c.fd then begin
        if (not c.stalled) && c.obytes > st.cfg.write_watermark_bytes then begin
          c.stalled <- true;
          st.svc.wb_stalls <- st.svc.wb_stalls + 1
        end
        else if c.stalled && c.obytes <= st.cfg.write_watermark_bytes / 2
        then begin
          c.stalled <- false;
          (* the frame clock was paused for the stall's duration; restart
             it so the server-imposed pause is not charged to the client *)
          if c.frame_start <> None then c.frame_start <- Some now;
          (* lines buffered while stalled are the only pending work; no
             fd event will re-surface this connection *)
          touch st c
        end;
        if
          c.close_after_flush && c.obytes = 0
          && Queue.is_empty c.replies
          && Frame.buffered c.input = 0
        then close_conn st c
      end
    end
  end

(* ------------------------------------------------------------------ loop *)

let drain_wake st =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read st.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
  in
  go ()

let accept_ready st =
  let rec go () =
    (* re-check the cap inside the burst loop: one readable event can
       carry many queued connections *)
    if Hashtbl.length st.conns >= st.cfg.max_connections then ()
    else
      match Unix.accept st.listen_fd with
      | fd, _ ->
      Unix.set_nonblock fd;
      let c =
        {
          fd;
          input = Frame.framer ~max_bytes:st.cfg.max_request_bytes;
          frame_start = None;
          replies = Queue.create ();
          out_cur = "";
          out_pos = 0;
          obuf = Buffer.create 1024;
          obytes = 0;
          reading = true;
          stalled = false;
          close_after_flush = false;
          dirty = false;
        }
      in
      Hashtbl.replace st.conns fd c;
      st.svc.connections <- st.svc.connections + 1;
      st.svc.conns_active <- st.svc.conns_active + 1;
      if st.svc.conns_active > st.svc.conns_peak then
        st.svc.conns_peak <- st.svc.conns_active;
      go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        (* the process (or system) is out of fds: leave the connection
           queued and back off — polling a listen fd we cannot accept
           from would spin the loop at 100% CPU *)
        st.accept_pause_until <- Unix.gettimeofday () +. 0.05
      | exception Unix.Unix_error _ -> () (* listen fd shut down: stop path *)
  in
  go ()

let loop st =
  let draining = ref false in
  let rec iterate nearest =
    if st.term then initiate_stop st;
    if st.stop && not !draining then begin
      draining := true;
      (* stop reading everywhere; buffered trailers are final frames,
         pending replies still flush (graceful drain) *)
      Hashtbl.iter
        (fun _ c ->
          if c.reading then begin
            c.reading <- false;
            c.close_after_flush <- true
          end;
          touch st c)
        st.conns
    end;
    let now = Unix.gettimeofday () in
    (* the outcome/deadline sweeps are O(connections) under the lock, so
       they run only when the self-pipe fired (the dispatcher published
       outcomes) or the nearest armed deadline passed — never on plain
       fd traffic *)
    if
      st.sweep_pending
      || (match nearest with Some d -> now >= d | None -> false)
    then begin
      st.sweep_pending <- false;
      sweep_slots st now;
      expire_frames st now
    end;
    (* service only the connections something actually happened to *)
    let rec drain_dirty () =
      match Queue.take_opt st.dirtyq with
      | None -> ()
      | Some c ->
        c.dirty <- false;
        if Hashtbl.mem st.conns c.fd then begin
          process_input st c now;
          service_conn st c now
        end;
        drain_dirty ()
    in
    drain_dirty ();
    if st.stop && Hashtbl.length st.conns = 0 then () (* drained: done *)
    else begin
      let reads, writes, deadlines =
        Hashtbl.fold
          (fun fd c (r, w, d) ->
            let r = if c.reading && not c.stalled then fd :: r else r in
            let w = if c.obytes > 0 then fd :: w else w in
            let d =
              match (st.cfg.timeout_ms, c.frame_start) with
              | Some ms, Some fs when c.reading && not c.stalled ->
                (fs +. (float_of_int ms /. 1000.)) :: d
              | _ -> d
            in
            let d =
              Queue.fold
                (fun d u ->
                  let slot_dl s acc =
                    match (s.pend, s.slot_deadline) with
                    | Some _, Some dl -> dl :: acc
                    | _ -> acc
                  in
                  match u with
                  | Ready _ -> d
                  | Route_r { slot; _ } -> slot_dl slot d
                  | Batch_r { slots; _ } ->
                    Array.fold_left (fun d s -> slot_dl s d) d slots)
                d c.replies
            in
            (r, w, d))
          st.conns ([ st.wake_r ], [], [])
      in
      (* the listen fd is polled only while the daemon can actually take
         another connection: not draining, under the connection cap
         (select's fixed FD_SETSIZE makes the cap a hard requirement,
         not a tunable), and not backing off from fd exhaustion *)
      let at_cap = Hashtbl.length st.conns >= st.cfg.max_connections in
      let accept_paused = st.accept_pause_until > now in
      let deadlines =
        if accept_paused && (not st.stop) && not at_cap then
          st.accept_pause_until :: deadlines
        else deadlines
      in
      let reads =
        if st.stop || at_cap || accept_paused then reads
        else st.listen_fd :: reads
      in
      let nearest =
        match deadlines with
        | [] -> None
        | ds -> Some (List.fold_left Float.min infinity ds)
      in
      let timeout = select_timeout ~now:(Unix.gettimeofday ()) deadlines in
      let readable, writable, _ =
        try Unix.select reads writes [] timeout with
        | Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        | Unix.Unix_error (Unix.EINVAL, _, _)
          when Hashtbl.length st.conns > 0 ->
          (* an fd slipped past select's FD_SETSIZE despite the
             connection cap (other parts of the process hold high fds):
             shed the newest — highest-numbered — connection instead of
             letting the whole daemon die *)
          let victim =
            Hashtbl.fold
              (fun fd c acc ->
                match acc with
                | Some (vfd, _) when compare vfd fd >= 0 -> acc
                | _ -> Some (fd, c))
              st.conns None
          in
          (match victim with
          | Some (_, c) -> disconnect st c
          | None -> ());
          ([], [], [])
      in
      let now = Unix.gettimeofday () in
      if List.mem st.wake_r readable then begin
        drain_wake st;
        st.sweep_pending <- true
      end;
      if (not st.stop) && List.mem st.listen_fd readable then accept_ready st;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt st.conns fd with
          | Some c when c.reading && not c.stalled -> read_conn st c now
          | Some _ | None -> ())
        readable;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt st.conns fd with
          | Some c -> (
            match flush_out st c with
            | `Gone -> disconnect st c
            | `Idle | `More ->
              (* the drained bytes may unstall the watermark or finish a
                 close-after-flush; plain flush progress needs nothing *)
              if c.stalled || c.close_after_flush then touch st c)
          | None -> ())
        writable;
      iterate nearest
    end
  in
  iterate None

(* ------------------------------------------------------------------- run *)

(* load [cache_file] when present, warn and start cold on a corrupt one *)
let load_or_create_cache cfg =
  let fresh () =
    Cache.create ?max_bytes:cfg.cache_bytes ~max_entries:cfg.cache_entries ()
  in
  match cfg.cache_file with
  | Some path when Sys.file_exists path -> (
    match load_cache cfg path with
    | Ok c -> c
    | Error e ->
      (* a corrupt or unreadable persistence file is a warning and a
         cold start, never a refusal to serve *)
      Printf.eprintf "codar serve: ignoring cache file %s: %s\n%!" path
        (Cache.load_error_to_string e);
      fresh ())
  | Some _ | None -> fresh ()

(* The kernel queue of connections not yet accepted. *)
let listen_backlog = 64

let bind_listen_socket cfg =
  (* a stale socket file from a dead daemon would make bind fail forever *)
  (match (Unix.lstat cfg.socket_path).Unix.st_kind with
  | Unix.S_SOCK -> Unix.unlink cfg.socket_path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd listen_backlog
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  listen_fd

(* persist to [cache_file] when configured; log, never raise *)
let save_cache_at_exit cfg cache =
  match cfg.cache_file with
  | Some path -> (
    try Cache.save cache path
    with Sys_error msg ->
      Printf.eprintf "codar serve: could not save cache to %s: %s\n%!" path
        msg)
  | None -> ()

let run ?on_ready cfg =
  (* a vanished client must be an EPIPE error, not a process kill *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let cache = load_or_create_cache cfg in
  let listen_fd = bind_listen_socket cfg in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let st =
    {
      cfg;
      cache;
      svc =
        {
          requests = 0;
          responses_ok = 0;
          responses_err = 0;
          routes_computed = 0;
          coalesced = 0;
          connections = 0;
          disconnects = 0;
          timeouts = 0;
          overloads = 0;
          conns_active = 0;
          conns_peak = 0;
          bytes_in = 0;
          bytes_out = 0;
          wb_stalls = 0;
        };
      m = Mutex.create ();
      cond = Condition.create ();
      jobq = Queue.create ();
      inflight = Hashtbl.create 16;
      stop = false;
      term = false;
      conns = Hashtbl.create 64;
      listen_fd;
      pool = Pool.create ~jobs:cfg.jobs;
      wake_r;
      wake_w;
      chunk = Bytes.create 65536;
      dirtyq = Queue.create ();
      sweep_pending = true;
      accept_pause_until = 0.;
    }
  in
  if cfg.handle_signals then begin
    (* lock-free handler: set the flag; shutting the listen fd down makes
       it readable, which wakes select, and the loop does the orderly
       [initiate_stop] *)
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
  (match on_ready with Some f -> f () | None -> ());
  (try loop st
   with e ->
     (* the loop must not die silently: drain and re-raise *)
     initiate_stop st;
     Printf.eprintf "codar serve: event loop failed: %s\n%!"
       (Printexc.to_string e));
  initiate_stop st;
  Thread.join dispatcher_thread;
  Pool.shutdown st.pool;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ st.listen_fd; st.wake_r; st.wake_w ];
  save_cache_at_exit cfg st.cache;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  st.svc
