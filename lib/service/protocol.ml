(* The daemon's wire protocol: newline-delimited JSON, one request frame in,
   one reply frame out (docs/SERVICE.md).

   Replies are serialised compactly with a fixed field order, and a route
   reply contains nothing but the request's deterministic image (fingerprint
   + record) — no timestamps, no cached-or-not marker — which is what makes
   the byte-identical-replay guarantee possible at all. Decoding is strict:
   unknown keys are rejected rather than ignored, because a typo'd option
   key that silently fell back to a default would route the wrong request
   and then *cache* it. *)

module Json = Report.Json

type route_req = {
  source : [ `Bench of string | `Qasm of string ];
  arch : string;
  durations : string;
  router : string;
  placement : string;
  objective : string option;
      (* routing objective(s): a name for codar, a comma list for the
         portfolio; [None] means the router's default (makespan) *)
  metric : string option;
      (* portfolio selection metric; [None] means makespan *)
  restarts : int;
  seed : int;
  collect_stats : bool;
}

type cache_action =
  | Info
  | Clear
  | Save of string option
  | Load of string option

type request =
  | Ping
  | Route of route_req
  | Batch of route_req list
  | Stats
  | Cache of cache_action
  | Shutdown

type error_code =
  | Parse
  | Bad_request
  | Unknown_op
  | Oversized
  | Route_failed
  | Io
  | Deadline_exceeded
  | Overloaded

let error_code_to_string = function
  | Parse -> "parse"
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Oversized -> "oversized"
  | Route_failed -> "route_failed"
  | Io -> "io"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"

let error_code_of_string = function
  | "parse" -> Some Parse
  | "bad_request" -> Some Bad_request
  | "unknown_op" -> Some Unknown_op
  | "oversized" -> Some Oversized
  | "route_failed" -> Some Route_failed
  | "io" -> Some Io
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "overloaded" -> Some Overloaded
  | _ -> None

(* ------------------------------------------------------------- decoding *)

let default_arch = "tokyo"
let default_durations = "sc"
let default_router = "codar"
let default_placement = "sabre"
let default_restarts = 8
let default_seed = 0

let route_keys =
  [
    "op"; "id"; "bench"; "qasm"; "arch"; "durations"; "router"; "placement";
    "objective"; "metric"; "restarts"; "seed"; "stats";
  ]

let ( let* ) = Result.bind

let check_keys ~allowed fields =
  List.fold_left
    (fun acc (k, _) ->
      let* () = acc in
      if List.mem k allowed then Ok ()
      else Error (Printf.sprintf "unknown key %S" k))
    (Ok ()) fields

let opt_field fields key decode ~default =
  match List.assoc_opt key fields with
  | None -> Ok default
  | Some v -> (
    match decode v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "key %S has the wrong type" key))

(* [fields] is the object body of a route request (the top-level frame for
   [op = "route"], one array element for [op = "batch"]). *)
let route_req_of_fields fields =
  let* () = check_keys ~allowed:route_keys fields in
  let* source =
    match (List.assoc_opt "bench" fields, List.assoc_opt "qasm" fields) with
    | Some (Json.String b), None -> Ok (`Bench b)
    | None, Some (Json.String q) -> Ok (`Qasm q)
    | Some _, Some _ -> Error "\"bench\" and \"qasm\" are exclusive"
    | Some _, None -> Error "key \"bench\" must be a string"
    | None, Some _ -> Error "key \"qasm\" must be a string"
    | None, None -> Error "one of \"bench\" or \"qasm\" is required"
  in
  let* arch =
    opt_field fields "arch" Json.to_string_opt ~default:default_arch
  in
  let* durations =
    opt_field fields "durations" Json.to_string_opt ~default:default_durations
  in
  let* router =
    opt_field fields "router" Json.to_string_opt ~default:default_router
  in
  let* placement =
    opt_field fields "placement" Json.to_string_opt ~default:default_placement
  in
  let* objective =
    opt_field fields "objective"
      (fun v -> Option.map Option.some (Json.to_string_opt v))
      ~default:None
  in
  let* metric =
    opt_field fields "metric"
      (fun v -> Option.map Option.some (Json.to_string_opt v))
      ~default:None
  in
  let* restarts =
    opt_field fields "restarts" Json.to_int_opt ~default:default_restarts
  in
  let* seed = opt_field fields "seed" Json.to_int_opt ~default:default_seed in
  let* collect_stats =
    opt_field fields "stats" Json.to_bool_opt ~default:false
  in
  Ok
    {
      source;
      arch;
      durations;
      router;
      placement;
      objective;
      metric;
      restarts;
      seed;
      collect_stats;
    }

let request_of_fields fields =
  let* op =
    match List.assoc_opt "op" fields with
    | Some (Json.String op) -> Ok op
    | Some _ -> Error (Bad_request, "key \"op\" must be a string")
    | None -> Error (Bad_request, "key \"op\" is required")
  in
  let bad r = Result.map_error (fun msg -> (Bad_request, msg)) r in
  match op with
  | "ping" ->
    let* () = bad (check_keys ~allowed:[ "op"; "id" ] fields) in
    Ok Ping
  | "stats" ->
    let* () = bad (check_keys ~allowed:[ "op"; "id" ] fields) in
    Ok Stats
  | "shutdown" ->
    let* () = bad (check_keys ~allowed:[ "op"; "id" ] fields) in
    Ok Shutdown
  | "route" ->
    let* r = bad (route_req_of_fields fields) in
    Ok (Route r)
  | "batch" ->
    let* () =
      bad (check_keys ~allowed:[ "op"; "id"; "requests" ] fields)
    in
    let* items =
      match List.assoc_opt "requests" fields with
      | Some (Json.List l) -> Ok l
      | Some _ -> Error (Bad_request, "key \"requests\" must be a list")
      | None -> Error (Bad_request, "key \"requests\" is required")
    in
    let* reqs =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Json.Obj fields ->
            let* r = bad (route_req_of_fields fields) in
            Ok (r :: acc)
          | _ -> Error (Bad_request, "batch items must be objects"))
        (Ok []) items
    in
    Ok (Batch (List.rev reqs))
  | "cache" ->
    let* () =
      bad (check_keys ~allowed:[ "op"; "id"; "action"; "file" ] fields)
    in
    let* file =
      bad
        (opt_field fields "file"
           (fun v -> Option.map Option.some (Json.to_string_opt v))
           ~default:None)
    in
    let* action =
      match List.assoc_opt "action" fields with
      | Some (Json.String "info") | None -> Ok Info
      | Some (Json.String "clear") -> Ok Clear
      | Some (Json.String "save") -> Ok (Save file)
      | Some (Json.String "load") -> Ok (Load file)
      | Some (Json.String a) ->
        Error (Bad_request, Printf.sprintf "unknown cache action %S" a)
      | Some _ -> Error (Bad_request, "key \"action\" must be a string")
    in
    Ok (Cache action)
  | op -> Error (Unknown_op, Printf.sprintf "unknown op %S" op)

(* [Ok (id, request)] or [Error (id, code, message)]; the id — an arbitrary
   JSON value under the "id" key — is recovered whenever the frame is at
   least a JSON object, so even error replies correlate. *)
let parse_frame line =
  match Json.parse line with
  | Error msg -> Error (None, Parse, msg)
  | Ok (Json.Obj fields) -> (
    let id = List.assoc_opt "id" fields in
    match request_of_fields fields with
    | Ok req -> Ok (id, req)
    | Error (code, msg) -> Error (id, code, msg))
  | Ok _ -> Error (None, Bad_request, "request frame must be a JSON object")

(* ------------------------------------------------------------- encoding *)

let frame fields = Json.to_string ~indent:0 (Json.Obj fields)

let ok_frame ?id ~op payload =
  frame
    ([ ("ok", Json.Bool true); ("op", Json.String op) ]
    @ (match id with Some id -> [ ("id", id) ] | None -> [])
    @ payload)

let error_frame ?id code msg =
  frame
    ([
       ("ok", Json.Bool false);
       ("code", Json.String (error_code_to_string code));
       ("error", Json.String msg);
     ]
    @ match id with Some id -> [ ("id", id) ] | None -> [])

let frame_ok frame = String.starts_with ~prefix:{|{"ok":true|} frame

let route_payload ~fingerprint record =
  [
    ("fingerprint", Json.String fingerprint);
    ("record", Report.Record.to_json record);
  ]

let cache_counters_to_json (c : Codar.Stats.cache) =
  Json.Obj
    [
      ("hits", Json.Int c.Codar.Stats.hits);
      ("misses", Json.Int c.Codar.Stats.misses);
      ("hit_rate", Json.Float (Codar.Stats.cache_hit_rate c));
      ("insertions", Json.Int c.Codar.Stats.insertions);
      ("evictions", Json.Int c.Codar.Stats.evictions);
      ("invalidations", Json.Int c.Codar.Stats.invalidations);
      ("memo_hits", Json.Int c.Codar.Stats.memo_hits);
    ]

