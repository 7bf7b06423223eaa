(* The in-process batch workloads (paper-batch, large-route). They call
   Service.Engine exactly as `codar_cli batch` does: load every input,
   then route them one after another in one domain. *)

module Engine = Service.Engine
module Json = Report.Json

type prepared = {
  req : Inputs.req;
  spec : (Engine.spec, string) result;  (** [Error] = the text did not parse *)
}

(* Set-up: resolve each request's device and parse its text. Like the
   daemon, every request resolves its device by name: the paper devices
   are shared values, and a generated device is built fresh, so no route
   inherits the distance rows an earlier one left in it. *)
let setup reqs =
  Array.map
    (fun (r : Inputs.req) ->
      let maqam =
        Arch.Maqam.make
          ~coupling:(Option.get (Arch.Devices.by_name r.arch))
          ~durations:(Option.get (Engine.durations_of_name r.durations))
      in
      let spec =
        match Span.with_ "qasm.parse" (fun () -> Qasm.Parser.parse r.text) with
        | circuit ->
          Ok
            {
              Engine.source_name = r.name;
              circuit;
              maqam;
              router = `Codar;
              placement = Option.get (Placement.of_name r.placement);
              objectives = [ Objective.makespan ];
              metric = Codar.Portfolio.Makespan;
              restarts = Service.Protocol.default_restarts;
              seed = Service.Protocol.default_seed;
              collect_stats = false;
            }
        | exception Qasm.Parser.Parse_error (line, msg) ->
          Error (Printf.sprintf "QASM parse error at line %d: %s" line msg)
        | exception Qasm.Lexer.Lex_error (line, msg) ->
          Error (Printf.sprintf "QASM lex error at line %d: %s" line msg)
      in
      { req = r; spec })
    reqs

let encode record = Json.to_string ~indent:0 (Report.Record.to_json record)

(* Engine.route for the CODAR router, split into the calls it makes so
   the traced mode can time each layer. The result equals Engine.route's
   apart from [wall_s]; the checks hold it to that. *)
let route_split ~stats (spec : Engine.spec) =
  let maqam = spec.maqam and circuit = spec.circuit in
  let initial =
    Span.with_ "placement" (fun () ->
        Placement.compute spec.placement ~maqam circuit)
  in
  let objective = List.hd spec.objectives in
  let t0 = Unix.gettimeofday () in
  let routed =
    Span.with_ "codar" (fun () ->
        Codar.Remapper.run
          ~config:{ Codar.Remapper.default_config with objective }
          ~stats ~maqam ~initial circuit)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let record =
    Span.with_ "report" (fun () ->
        Report.Record.make ~source:spec.source_name
          ~router:(Engine.router_name spec.router)
          ~placement:(Placement.name spec.placement)
          ~objective:(Objective.name objective) ~wall_s ~maqam
          ~original:circuit routed)
  in
  (record, routed)

(* One timed route: wall and CPU time from placement to the encoded
   record, and the words the route call allocated. Allocation is counted
   around the route call alone, from an emptied minor heap: encoding
   allocates a few words more or less with the digits of the measured
   [wall_s], and the count must repeat exactly. *)
type sample = { wall_ms : float; cpu_s : float; words : float }

type routed = {
  prep : prepared;
  record : Report.Record.t;
  routed : Schedule.Routed.t;
  bytes : string;
  fp : string;
  samples : sample list;  (** one per repetition of the pass *)
  warm_ms : float list;  (** in-process cache-hit latencies *)
  mismatches : int;  (** cache hits whose reply lacks the routed record *)
}

let route_once ~stats ~req spec =
  let t0 = Measure.now_ns () and c0 = Measure.cpu_s () in
  let record, routed, bytes, words =
    Span.with_ ~req "request" (fun () ->
        Gc.minor ();
        let w0 = Measure.alloc_words () in
        let record, routed =
          match stats with
          | None -> Engine.route spec
          | Some stats -> route_split ~stats spec
        in
        let words = Measure.alloc_words () -. w0 in
        (record, routed, Span.with_ "report" (fun () -> encode record), words))
  in
  let cpu_s = Measure.cpu_s () -. c0 in
  ({ wall_ms = Measure.secs_since t0 *. 1e3; cpu_s; words }, record, routed, bytes)

(* The daemon's warm path, in-process: frame parse, request resolution,
   fingerprint, cache lookup and reply encoding. *)
let warm_request ~cache ~req line =
  Span.with_ ~req "warm.request" (fun () ->
      match
        Span.with_ "service.frame_parse" (fun () ->
            Service.Protocol.parse_frame line)
      with
      | Ok (id, Service.Protocol.Route rr) -> (
        match
          Span.with_ "service.spec" (fun () -> Engine.spec_of_route_req rr)
        with
        | Error msg -> Service.Protocol.error_frame ?id Bad_request msg
        | Ok spec -> (
          let fp =
            Span.with_ "cache.fingerprint" (fun () -> Engine.fingerprint spec)
          in
          match Span.with_ "cache.lookup" (fun () -> Cache.find cache fp) with
          | Some record ->
            Span.with_ "report" (fun () ->
                Service.Ops.route_frame ?id
                  (Service.Ops.item_ok ~fingerprint:fp record))
          | None -> "miss"))
      | Ok _ | Error _ -> "bad frame")

(* Traced runs time two probes beside each replayed request, outside its
   span: a QASM parse of its text ("qasm.probe"), and the request's
   resolution with a suite circuit in place of the text
   ("service.spec_self"), i.e. Engine.spec_of_route_req without the
   parse it makes. *)
let probe ~text line =
  ignore (Span.with_ "qasm.probe" (fun () -> Qasm.Parser.parse text));
  match Service.Protocol.parse_frame line with
  | Ok (_, Service.Protocol.Route rr) ->
    ignore
      (Span.with_ "service.spec_self" (fun () ->
           Engine.spec_of_route_req { rr with source = `Bench "ghz_3" }))
  | Ok _ | Error _ -> ()

(* Traced runs time building each device from its edge list. *)
let build_devices couplings =
  List.iter
    (fun c ->
      ignore
        (Span.with_ "arch.build" (fun () ->
             Arch.Coupling.make ?coords:(Arch.Coupling.coords c)
               ~name:(Arch.Coupling.name c) ~n:(Arch.Coupling.n_qubits c)
               (Arch.Coupling.edges c))))
    couplings

(* The measured passes. Each parsed request is routed [reps req] times,
   the passes one after another, so each request's repetitions lie
   seconds apart. Right after each route the request's record enters
   [cache] and its warm path runs [warm_rounds] times; those replays are
   interleaved with the routes but timed apart from them. *)
let passes ~reps ~warm_rounds ~traced ~stats ~cache preps =
  let todo =
    Array.of_list
      (List.filter_map
         (fun p -> Result.to_option p.spec |> Option.map (fun s -> (p, s)))
         (Array.to_list preps))
  in
  let lines = Array.map (fun (p, _) -> Inputs.frame p.req) todo in
  let out = Array.make (Array.length todo) None in
  let last_sample = ref 0L in
  let max_reps = Array.fold_left (fun acc (p, _) -> max acc (reps p)) 0 todo in
  for rep = 0 to max_reps - 1 do
    (* spans and router counters describe the first pass *)
    Span.enabled := traced && rep = 0;
    Array.iteri
      (fun i (prep, spec) ->
        if rep < reps prep then begin
        (* the host-speed kernel, at most every quarter second of work *)
        if Int64.sub (Measure.now_ns ()) !last_sample > 250_000_000L then begin
          Measure.sample_speed ();
          last_sample := Measure.now_ns ()
        end;
        let stats = if traced && rep = 0 then Some stats else None in
        let sample, record, routed, bytes = route_once ~stats ~req:i spec in
        let fp = Engine.fingerprint spec in
        Span.with_ "cache.insert" (fun () -> Cache.add cache fp record);
        let expected =
          Service.Ops.route_frame (Service.Ops.item_ok ~fingerprint:fp record)
        in
        let warm = ref [] and mism = ref 0 in
        for _ = 1 to warm_rounds do
          if !Span.enabled then probe ~text:prep.req.text lines.(i);
          let t0 = Measure.now_ns () in
          let reply = warm_request ~cache ~req:i lines.(i) in
          warm := (Measure.secs_since t0 *. 1e3) :: !warm;
          if not (String.equal reply expected) then incr mism
        done;
        out.(i) <-
          Some
            (match out.(i) with
            | None ->
              {
                prep;
                record;
                routed;
                bytes;
                fp;
                samples = [ sample ];
                warm_ms = !warm;
                mismatches = !mism;
              }
            | Some r ->
              {
                r with
                samples = sample :: r.samples;
                warm_ms = !warm @ r.warm_ms;
                mismatches = r.mismatches + !mism;
              })
        end)
      todo
  done;
  Span.enabled := traced;
  (Array.map Option.get out, lines)

let verify (r : routed) =
  let spec = Result.get_ok r.prep.spec in
  Span.with_ "schedule.verify" (fun () ->
      Schedule.Verify.check_all ~maqam:spec.maqam ~original:spec.circuit
        r.routed)
