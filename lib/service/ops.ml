(* The daemon's reply frames and its route lookup. Everything here is
   either pure or parameterised over the caller's cache access and lock,
   so code outside the server (perfbench's in-process replays, the
   protocol tests) builds the very bytes the daemon writes. *)

module Json = Report.Json

let item_ok ~fingerprint record =
  Json.Obj
    (("ok", Json.Bool true) :: Protocol.route_payload ~fingerprint record)

let item_err code msg =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("code", Json.String (Protocol.error_code_to_string code));
      ("error", Json.String msg);
    ]

let deadline_item timeout_ms =
  item_err Protocol.Deadline_exceeded
    (Printf.sprintf "route exceeded the %d ms deadline"
       (Option.value timeout_ms ~default:0))

let overloaded_item queue_capacity =
  item_err Protocol.Overloaded
    (Printf.sprintf "dispatch queue is full (capacity %d); retry with backoff"
       queue_capacity)

let stopping_item = item_err Protocol.Io "server is shutting down"

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The request memo holds two kinds of key. A top-level route frame
   without an "id" is memoised under its raw line, so a repeat is answered
   before any decoding; a frame with an id (a different line on every
   repeat) and a batch item (not a whole line) are memoised under
   {!Engine.request_key}. Only lines that open a JSON object are looked
   up, and request keys start with 'b' or 'q', so the two kinds of key
   can never meet. *)

let object_line line = String.length line > 0 && line.[0] = '{'

let find_line ~m ~cache line =
  if object_line line then locked m (fun () -> Cache.find_memo (cache ()) line)
  else None

let line_key ?id line =
  match id with None when object_line line -> Some line | Some _ | None -> None

let lookup_route ~m ~cache ~miss ?line rr =
  let key, memo_hit =
    match line with
    | Some line ->
      (* [find_line] has already missed *)
      (line, None)
    | None ->
      let key = Engine.request_key rr in
      (key, locked m (fun () -> Cache.find_memo (cache ()) key))
  in
  match memo_hit with
  | Some hit -> `Hit hit
  | None -> (
    match Engine.spec_of_route_req rr with
    | Error msg -> `Bad msg
    | Ok spec ->
      let fp = Engine.fingerprint spec in
      locked m (fun () ->
          let cache = cache () in
          match Cache.find_hit cache fp with
          | Some hit ->
            (* admitted on a hit only: one-shot colds and texts that do
               not parse never enter the memo *)
            Cache.memoise cache key ~fingerprint:fp;
            `Hit hit
          | None -> miss fp spec))

let hit_item (hit : Cache.hit) = item_ok ~fingerprint:hit.fingerprint hit.record

let outcome_item ~fp = function
  | Ok record -> item_ok ~fingerprint:fp record
  | Error msg -> item_err Protocol.Route_failed msg

(* Lift a route item into a top-level frame: ok payloads become an
   [op:"route"] reply, error items a typed top-level error frame. *)
let route_frame ?id item =
  match item with
  | Json.Obj (("ok", Json.Bool true) :: payload) ->
    Protocol.ok_frame ?id ~op:"route" payload
  | item ->
    let code =
      match Json.member "code" item with
      | Some (Json.String c) -> (
        match Protocol.error_code_of_string c with
        | Some c -> c
        | None -> Protocol.Route_failed)
      | Some _ | None -> Protocol.Route_failed
    in
    let msg =
      match Json.member "error" item with
      | Some (Json.String m) -> m
      | Some _ | None -> "route failed"
    in
    Protocol.error_frame ?id code msg

(* The bytes of [route_frame ?id (hit_item hit)], written around the
   record's stored JSON instead of re-encoding it: the frame is compact,
   so the record nests at no indentation and its bytes are the stored
   ones. *)
let hit_frame ?id (hit : Cache.hit) =
  let b = Buffer.create (String.length hit.json + 80) in
  Buffer.add_string b {|{"ok":true,"op":"route"|};
  (match id with
  | Some id ->
    Buffer.add_string b {|,"id":|};
    Json.to_buffer ~indent:0 b id
  | None -> ());
  Buffer.add_string b {|,"fingerprint":|};
  Json.to_buffer ~indent:0 b (Json.String hit.fingerprint);
  Buffer.add_string b {|,"record":|};
  Buffer.add_string b hit.json;
  Buffer.add_char b '}';
  Buffer.contents b

let batch_frame ?id items =
  Protocol.ok_frame ?id ~op:"batch" [ ("results", Json.List items) ]

let ping_frame ?id () =
  Protocol.ok_frame ?id ~op:"ping" [ ("reply", Json.String "pong") ]

let shutdown_frame ?id () = Protocol.ok_frame ?id ~op:"shutdown" []

let stats_frame ?id ~jobs ~svc_json ~cache_counters () =
  let faults =
    (* per-point injected-fault counts of the armed plan; an empty
       object when no plan is armed *)
    Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) (Faults.fired ()))
  in
  Protocol.ok_frame ?id ~op:"stats"
    [
      ("service", svc_json);
      ("cache", cache_counters);
      ("faults", faults);
      ("jobs", Json.Int jobs);
    ]
