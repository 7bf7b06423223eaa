(* The evented server: one I/O thread multiplexing every client socket
   through [Unix.select], non-blocking fds, and explicit per-connection
   read/write buffers. The Domain pool still does the routing work — the
   dispatcher thread is unchanged in spirit from [Server] — but finished
   outcomes come back to the loop over a self-pipe instead of a condition
   broadcast into per-connection threads.

   Per-connection state machine:

     reading ──complete frame──▶ queued reply unit ──routing──▶ resolved
        ▲                                                        │
        └──────────── reply bytes drained to the socket ◀────────┘

   - Inbound bytes accumulate in [ibuf]; complete lines move to
     [pending_lines] and are handled in order. Replies are *units* in
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
     observed without any ticker thread.

   Fault-injection parity with the threaded server: reads go through
   {!Frame.read_once} [~inject:true] (same point order as the blocking
   reader); [Frame_write_error] is queried once per enqueued reply frame
   — the rate the threaded [Frame.write] sees — rather than once per
   [write] syscall. The fault-soak transcript pins this. *)

module Json = Report.Json
open Config

type pending = {
  fp : string;
  spec : Engine.spec;
  mutable outcome : (Report.Record.t, string) result option;
}

(* One route inside a reply unit: either already an item, or waiting on
   an in-flight computation (with its own deadline). *)
type slot = {
  mutable item : Json.t option;
  mutable pend : pending option;
  mutable slot_deadline : float option;
}

type reply =
  | Ready of { frame : string; ok : bool }
  | Route_r of { id : Json.t option; slot : slot }
  | Batch_r of { id : Json.t option; slots : slot array }

type conn = {
  fd : Unix.file_descr;
  ibuf : Buffer.t;  (* partial inbound frame *)
  pending_lines : string Queue.t;  (* complete, not yet handled *)
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

type state = {
  cfg : Config.t;
  mutable cache : Cache.t;
  svc : Codar.Stats.service;
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
          try Ok (fst (Engine.route p.spec))
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
          | Ok record -> Cache.add st.cache p.fp record
          | Error _ -> ());
          st.svc.Codar.Stats.routes_computed <-
            st.svc.Codar.Stats.routes_computed + 1;
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

let count_reply st ok =
  if ok then
    st.svc.Codar.Stats.responses_ok <- st.svc.Codar.Stats.responses_ok + 1
  else
    st.svc.Codar.Stats.responses_err <- st.svc.Codar.Stats.responses_err + 1

let close_conn st c =
  Hashtbl.remove st.conns c.fd;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  st.svc.Codar.Stats.conns_active <- st.svc.Codar.Stats.conns_active - 1

let disconnect st c =
  st.svc.Codar.Stats.disconnects <- st.svc.Codar.Stats.disconnects + 1;
  close_conn st c

(* Append one serialised frame to the connection's output. Queries the
   write fault point here — once per frame, like the threaded server —
   and treats a fired fault as the vanished client it simulates. Returns
   [false] when the connection died. *)
let emit st c ~ok frame =
  if Faults.fire Faults.Frame_write_error then begin
    disconnect st c;
    false
  end
  else begin
    Buffer.add_string c.obuf frame;
    Buffer.add_char c.obuf '\n';
    c.obytes <- c.obytes + String.length frame + 1;
    count_reply st ok;
    true
  end

let slot_ready s = s.item <> None

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
      | Ready { frame; ok } -> emit st c ~ok frame
      | Route_r { id; slot } ->
        emit st c ~ok:true (Ops.route_frame ?id (Option.get slot.item))
      | Batch_r { id; slots } ->
        let items = Array.to_list (Array.map (fun s -> Option.get s.item) slots) in
        emit st c ~ok:true (Ops.batch_frame ?id items)
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
      st.svc.Codar.Stats.bytes_out <- st.svc.Codar.Stats.bytes_out + n;
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
   [pending] (enqueueing a fresh one under admission control). *)
let route_slot st now (rr : Protocol.route_req) =
  let resolution =
    match
      Ops.lookup_route ~m:st.m ~cache:(fun () -> st.cache) rr
        ~miss:(fun fp spec ->
          if st.stop then `Done Ops.stopping_item
          else begin
            match Hashtbl.find_opt st.inflight fp with
            | Some p ->
              st.svc.Codar.Stats.coalesced <- st.svc.Codar.Stats.coalesced + 1;
              `Wait p
            | None ->
              (* admission control: a full queue is an immediate typed
                 refusal, never a parked request *)
              if Queue.length st.jobq >= st.cfg.queue_capacity then begin
                st.svc.Codar.Stats.overloads <-
                  st.svc.Codar.Stats.overloads + 1;
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
    | `Hit (fp, record) -> `Done (Ops.item_ok ~fingerprint:fp record)
    | (`Done _ | `Wait _) as r -> r
  in
  match resolution with
  | `Done item -> { item = Some item; pend = None; slot_deadline = None }
  | `Wait p ->
    let deadline =
      Option.map
        (fun ms -> now +. (float_of_int ms /. 1000.))
        st.cfg.timeout_ms
    in
    { item = None; pend = Some p; slot_deadline = deadline }

let initiate_stop st =
  locked st (fun () ->
      if not st.stop then begin
        st.stop <- true;
        (try Unix.shutdown st.listen_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        Condition.broadcast st.cond
      end)

let handle_line st c now line =
  if line = "" then () (* tolerate keep-alive blank lines *)
  else
    match Protocol.parse_frame line with
    | Error (id, code, msg) ->
      Queue.add
        (Ready { frame = Protocol.error_frame ?id code msg; ok = false })
        c.replies
    | Ok (id, req) -> (
      st.svc.Codar.Stats.requests <- st.svc.Codar.Stats.requests + 1;
      match req with
      | Protocol.Ping ->
        Queue.add (Ready { frame = Ops.ping_frame ?id (); ok = true }) c.replies
      | Protocol.Stats ->
        let svc_json, cache_counters =
          locked st (fun () ->
              ( Protocol.service_counters_to_json st.svc,
                Protocol.cache_counters_to_json (Cache.counters st.cache) ))
        in
        Queue.add
          (Ready
             {
               frame =
                 Ops.stats_frame ?id ~jobs:st.cfg.jobs ~svc_json
                   ~cache_counters ();
               ok = true;
             })
          c.replies
      | Protocol.Route rr -> (
        let slot = route_slot st now rr in
        match slot.item with
        | Some item ->
          Queue.add
            (Ready { frame = Ops.route_frame ?id item; ok = true })
            c.replies
        | None -> Queue.add (Route_r { id; slot }) c.replies)
      | Protocol.Batch rrs ->
        let slots = Array.of_list (List.map (route_slot st now) rrs) in
        Queue.add (Batch_r { id; slots }) c.replies
      | Protocol.Cache action -> (
        match
          Ops.handle_cache ~cfg:st.cfg
            ~get_cache:(fun () -> locked st (fun () -> st.cache))
            ~set_cache:(fun cache -> locked st (fun () -> st.cache <- cache))
            ?id action
        with
        | `Reply frame -> Queue.add (Ready { frame; ok = true }) c.replies
        | `Error (code, msg) ->
          Queue.add
            (Ready { frame = Protocol.error_frame ?id code msg; ok = true })
            c.replies)
      | Protocol.Shutdown ->
        Queue.add
          (Ready { frame = Ops.shutdown_frame ?id (); ok = true })
          c.replies;
        (* like the threaded connection loop: nothing after shutdown *)
        c.reading <- false;
        Queue.clear c.pending_lines;
        Buffer.clear c.ibuf;
        c.frame_start <- None;
        c.close_after_flush <- true;
        initiate_stop st)

(* The connection violated framing (oversized frame or a mid-frame
   stall): answer once, stop reading, close after the answer flushes. *)
let poison _st c frame =
  Queue.add (Ready { frame; ok = false }) c.replies;
  c.reading <- false;
  Queue.clear c.pending_lines;
  Buffer.clear c.ibuf;
  c.frame_start <- None;
  c.close_after_flush <- true

let oversized st c =
  poison st c
    (Protocol.error_frame Protocol.Oversized
       (Printf.sprintf "request exceeds %d bytes" st.cfg.max_request_bytes))

(* Move complete lines out of [ibuf] into [pending_lines] and handle as
   many as backpressure allows; enforce the frame cap while buffering. *)
let process_input st c now =
  let s = Buffer.contents c.ibuf in
  (match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
    Buffer.clear c.ibuf;
    Buffer.add_substring c.ibuf s (last + 1) (String.length s - last - 1);
    (* a leftover partial frame restarts the clock rather than clearing
       it: a pipelined chunk ending mid-frame must still observe the
       read deadline (Frame.read re-arms the same way) *)
    c.frame_start <- (if Buffer.length c.ibuf > 0 then Some now else None);
    List.iter
      (fun l -> Queue.add l c.pending_lines)
      (String.split_on_char '\n' (String.sub s 0 last)));
  if Buffer.length c.ibuf > st.cfg.max_request_bytes then oversized st c
  else begin
    (let rec handle () =
       if (not c.stalled) && not (Queue.is_empty c.pending_lines) then begin
         let line = Queue.pop c.pending_lines in
         if String.length line > st.cfg.max_request_bytes then oversized st c
         else begin
           handle_line st c now line;
           if Hashtbl.mem st.conns c.fd then handle ()
         end
       end
     in
     handle ());
    (* an EOF'd connection's unterminated trailer is a final frame
       (lenient EOF framing, like the blocking reader) *)
    if
      (not c.reading) && (not c.stalled)
      && Queue.is_empty c.pending_lines
      && Buffer.length c.ibuf > 0
      && Hashtbl.mem st.conns c.fd
    then begin
      let line = Buffer.contents c.ibuf in
      Buffer.clear c.ibuf;
      c.frame_start <- None;
      handle_line st c now line
    end
  end

let read_conn st c now =
  match Frame.read_once ~inject:true c.fd st.chunk with
  | `Again -> ()
  | `Eof ->
    c.reading <- false;
    c.close_after_flush <- true;
    touch st c
  | `Data n ->
    st.svc.Codar.Stats.bytes_in <- st.svc.Codar.Stats.bytes_in + n;
    Buffer.add_subbytes c.ibuf st.chunk 0 n;
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
        s.item <- Some (Ops.outcome_item ~fp:p.fp o);
        s.pend <- None;
        s.slot_deadline <- None;
        changed := true
      | None -> (
        match s.slot_deadline with
        | Some d when now >= d ->
          (* the job itself keeps running and will land in the cache;
             only this waiter gives up *)
          st.svc.Codar.Stats.timeouts <- st.svc.Codar.Stats.timeouts + 1;
          s.item <- Some (Ops.deadline_item st.cfg.timeout_ms);
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
            st.svc.Codar.Stats.timeouts <- st.svc.Codar.Stats.timeouts + 1);
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
          st.svc.Codar.Stats.wb_stalls <- st.svc.Codar.Stats.wb_stalls + 1
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
          && Queue.is_empty c.pending_lines
          && Buffer.length c.ibuf = 0
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
          ibuf = Buffer.create 512;
          pending_lines = Queue.create ();
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
      st.svc.Codar.Stats.connections <- st.svc.Codar.Stats.connections + 1;
      st.svc.Codar.Stats.conns_active <- st.svc.Codar.Stats.conns_active + 1;
      if st.svc.Codar.Stats.conns_active > st.svc.Codar.Stats.conns_peak then
        st.svc.Codar.Stats.conns_peak <- st.svc.Codar.Stats.conns_active;
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

let run ?on_ready cfg =
  (* a vanished client must be an EPIPE error, not a process kill *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let cache = Ops.load_or_create_cache cfg in
  let listen_fd = Ops.bind_listen_socket cfg in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
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
  Ops.save_cache_at_exit cfg st.cache;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  st.svc
