(* Request handling shared by the two server implementations. Everything
   here is either pure or parameterised over the caller's cache access,
   so [Server] (thread-per-connection, blocking waits) and [Evented]
   (select loop, parked continuations) produce byte-identical frames for
   every operation that does not involve waiting on a route. *)

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

let lookup_route ~m ~cache ~miss rr =
  let key = Engine.request_key rr in
  match locked m (fun () -> Cache.find_memo (cache ()) key) with
  | Some (fp, record) -> `Hit (fp, record)
  | None -> (
    match Engine.spec_of_route_req rr with
    | Error msg -> `Bad msg
    | Ok spec ->
      let fp = Engine.fingerprint spec in
      locked m (fun () ->
          let cache = cache () in
          match Cache.find cache fp with
          | Some record ->
            (* admitted on a hit only: one-shot colds and texts that do
               not parse never enter the memo *)
            Cache.memoise cache key ~fingerprint:fp;
            `Hit (fp, record)
          | None -> miss fp spec))

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

(* [get_cache]/[set_cache] abstract over the caller's locking discipline:
   the threaded server reads the cache pointer under its mutex, the
   evented one owns it from the loop thread. *)
let handle_cache ~(cfg : Config.t) ~get_cache ~set_cache ?id action =
  let path_or ~fallback = function
    | Some p -> Ok p
    | None -> (
      match fallback with
      | Some p -> Ok p
      | None -> Error "no cache file given and none configured")
  in
  match action with
  | Protocol.Info ->
    `Reply
      (Protocol.ok_frame ?id ~op:"cache"
         [
           ("action", Json.String "info");
           ("cache", cache_info_json (get_cache ()));
         ])
  | Protocol.Clear ->
    Cache.clear (get_cache ());
    `Reply
      (Protocol.ok_frame ?id ~op:"cache" [ ("action", Json.String "clear") ])
  | Protocol.Save file -> (
    match path_or ~fallback:cfg.Config.cache_file file with
    | Error msg -> `Error (Protocol.Bad_request, msg)
    | Ok path -> (
      let cache = get_cache () in
      match Cache.save cache path with
      | () ->
        `Reply
          (Protocol.ok_frame ?id ~op:"cache"
             [
               ("action", Json.String "save");
               ("file", Json.String path);
               ("entries", Json.Int (Cache.length cache));
             ])
      | exception Sys_error msg -> `Error (Protocol.Io, msg)))
  | Protocol.Load file -> (
    match path_or ~fallback:cfg.Config.cache_file file with
    | Error msg -> `Error (Protocol.Bad_request, msg)
    | Ok path -> (
      match
        Cache.load ?max_bytes:cfg.Config.cache_bytes
          ~max_entries:cfg.Config.cache_entries path
      with
      | Error e -> `Error (Protocol.Io, Cache.load_error_to_string e)
      | Ok cache ->
        set_cache cache;
        `Reply
          (Protocol.ok_frame ?id ~op:"cache"
             [
               ("action", Json.String "load");
               ("file", Json.String path);
               ("entries", Json.Int (Cache.length cache));
             ])))

(* Startup/shutdown plumbing shared verbatim by both servers. *)

let load_or_create_cache (cfg : Config.t) =
  match cfg.Config.cache_file with
  | Some path when Sys.file_exists path -> (
    match
      Cache.load ?max_bytes:cfg.Config.cache_bytes
        ~max_entries:cfg.Config.cache_entries path
    with
    | Ok c -> c
    | Error e ->
      (* a corrupt or unreadable persistence file is a warning and a
         cold start, never a refusal to serve *)
      Printf.eprintf "codar serve: ignoring cache file %s: %s\n%!" path
        (Cache.load_error_to_string e);
      Cache.create ?max_bytes:cfg.Config.cache_bytes
        ~max_entries:cfg.Config.cache_entries ())
  | Some _ | None ->
    Cache.create ?max_bytes:cfg.Config.cache_bytes
      ~max_entries:cfg.Config.cache_entries ()

let bind_listen_socket (cfg : Config.t) =
  (* a stale socket file from a dead daemon would make bind fail forever *)
  (match (Unix.lstat cfg.Config.socket_path).Unix.st_kind with
  | Unix.S_SOCK -> Unix.unlink cfg.Config.socket_path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.Config.socket_path);
     Unix.listen listen_fd cfg.Config.backlog
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  listen_fd

let save_cache_at_exit (cfg : Config.t) cache =
  match cfg.Config.cache_file with
  | Some path -> (
    try Cache.save cache path
    with Sys_error msg ->
      Printf.eprintf "codar serve: could not save cache to %s: %s\n%!" path
        msg)
  | None -> ()
