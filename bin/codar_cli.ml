(* codar — map OpenQASM circuits onto NISQ devices with CODAR or SABRE. *)

open Cmdliner

(* Exit-code discipline (asserted by test/cli_exit_codes.sh): every failure
   class gets its own code so scripts can tell a bad circuit from a bad
   route from a bad socket without scraping stderr. Cmdliner keeps its own
   124/125 for command-line errors. *)
let exit_usage = 2 (* unknown benchmark, exclusive flags, empty batch *)
let exit_parse = 3 (* QASM parse/lex errors *)
let exit_route = 4 (* routing/placement/verification failures *)
let exit_io = 5 (* file and socket errors *)

let guard f =
  try f () with
  | Qasm.Parser.Parse_error (line, msg) ->
    Fmt.epr "codar_cli: QASM parse error at line %d: %s@." line msg;
    exit exit_parse
  | Qasm.Lexer.Lex_error (line, msg) ->
    Fmt.epr "codar_cli: QASM lex error at line %d: %s@." line msg;
    exit exit_parse
  | Qasm.Parser.Too_wide { line; qubits; limit } ->
    Fmt.epr
      "codar_cli: QASM parse error at line %d: circuit needs %d qubits but \
       the device has only %d@."
      line qubits limit;
    exit exit_parse
  | Invalid_argument msg
  | Codar.Remapper.Stuck msg
  | Sabre.Router.Stuck msg
  | Astar.Router.Stuck msg ->
    Fmt.epr "codar_cli: routing error: %s@." msg;
    exit exit_route
  | Sys_error msg ->
    Fmt.epr "codar_cli: I/O error: %s@." msg;
    exit exit_io
  | Unix.Unix_error (e, fn, arg) ->
    Fmt.epr "codar_cli: I/O error: %s: %s %s@." (Unix.error_message e) fn arg;
    exit exit_io
  | Failure msg ->
    Fmt.epr "codar_cli: %s@." msg;
    exit exit_usage

let durations_of_string s =
  match Service.Engine.durations_of_name s with
  | Some d -> Ok d
  | None -> Error (`Msg (Fmt.str "unknown duration profile %S" s))

let unknown_arch s =
  Fmt.str
    "unknown architecture %S: not a device name, or past the bound of %d \
     qubits and %d couplers"
    s Arch.Coupling.max_qubits
    (8 * Arch.Coupling.max_qubits)

(* One help text for every --arch: the whole [Arch.Devices.by_name]
   grammar and its bound. *)
let arch_doc =
  Fmt.str
    "Target device: melbourne (q16), tokyo (q20), 6x6 (enfield), sycamore \
     (q54), q5, linear-N, ring-N (N >= 3), grid-RxC, full-N (N <= 128) or \
     heavy-hex-D (odd D >= 3), in any letter case; sizes are decimal digits \
     and a device has at most %d qubits."
    Arch.Coupling.max_qubits

let arch_conv =
  let parse s =
    match Arch.Devices.by_name s with
    | Some c -> Ok c
    | None -> Error (`Msg (unknown_arch s))
  in
  Arg.conv (parse, fun ppf c -> Fmt.string ppf (Arch.Coupling.name c))

let durations_conv =
  Arg.conv
    ( durations_of_string,
      fun ppf d -> Fmt.string ppf (Arch.Durations.name d) )

let load_circuit ~arch input bench =
  match (input, bench) with
  | Some path, None ->
    Qasm.Parser.parse_file ~max_qubits:(Arch.Coupling.n_qubits arch) path
  | None, Some name -> (
    match Workloads.Suite.find name with
    | Some e -> Lazy.force e.circuit
    | None -> Fmt.failwith "unknown benchmark %S (see `codar_cli benchmarks`)" name)
  | Some _, Some _ -> Fmt.failwith "--input and --bench are exclusive"
  | None, None -> Fmt.failwith "one of --input or --bench is required"

let router_name = Service.Engine.router_name

(* One timed routing job: the shared driver in [Service.Engine] produces
   the record used by [map --json], every [batch] line, and the daemon;
   [k] reads the record and the schedule, lent as Engine.route_with lends
   it. *)
let route_record ?(restarts = 8) ?(seed = 0) ~collect_stats ~source ~placement
    ~objectives ~metric router maqam circuit k =
  Service.Engine.route_with
    {
      Service.Engine.source_name = source;
      circuit;
      maqam;
      router;
      placement;
      objectives;
      metric;
      restarts;
      seed;
      collect_stats;
    }
    k

(* Shared by [map] and [batch]: the daemon's restarts bound, for every
   router, as a routing failure. *)
let check_restarts restarts =
  match Service.Engine.check_restarts restarts with
  | Ok () -> ()
  | Error msg ->
    Fmt.epr "codar_cli: routing error: %s@." msg;
    exit exit_route

(* Shared by [map] and [batch]: resolve the -r string (which may carry
   "codar:t2" inline sugar) plus --objective/--metric into the typed
   triple, turning resolution errors into usage failures. *)
let resolve_router_exn ~router ~objective ~metric ~durations =
  match Service.Engine.resolve_router ~router ~objective ~metric ~durations with
  | Ok triple -> triple
  | Error msg -> Fmt.failwith "%s" msg

(* The routing objectives, for help texts. *)
let objective_names = String.concat ", " Objective.names

let router_arg =
  Arg.(
    value & opt string "codar"
    & info [ "router"; "r" ]
        ~doc:
          ("Routing algorithm: codar, sabre, astar, or portfolio (CODAR over \
            --restarts random-restart initial layouts, deterministic \
            best-of-K). codar takes an inline objective as \
            $(b,codar:)$(i,OBJECTIVE), one of " ^ objective_names
         ^ "; see --objective."))

let objective_arg =
  Arg.(
    value & opt (some string) None
    & info [ "objective" ]
        ~doc:
          ("Routing objective for the codar/portfolio routers, one of "
         ^ objective_names ^ " (default "
          ^ Objective.name Objective.makespan
          ^ "). The portfolio accepts a comma list and cycles it over \
             restarts."))

let metric_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metric" ]
        ~doc:"Portfolio selection metric: makespan (default), esp \
              (needs a calibrated duration profile), or depth.")

let map_cmd =
  let input =
    Arg.(value & opt (some file) None & info [ "input"; "i" ] ~doc:"OpenQASM input file.")
  in
  let bench =
    Arg.(value & opt (some string) None & info [ "bench"; "b" ] ~doc:"Built-in benchmark name.")
  in
  let arch =
    Arg.(value & opt arch_conv Arch.Devices.ibm_q20_tokyo
         & info [ "arch"; "a" ] ~doc:arch_doc)
  in
  let durations =
    Arg.(value & opt durations_conv Arch.Durations.superconducting
         & info [ "durations"; "d" ] ~doc:"Duration profile: sc, ion, atom, uniform.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~doc:"Write routed OpenQASM here.")
  in
  let verify = Arg.(value & flag & info [ "verify" ] ~doc:"Run semantic verification.") in
  let timeline = Arg.(value & flag & info [ "timeline" ] ~doc:"Print the event timeline.") in
  let compare_ = Arg.(value & flag & info [ "compare" ] ~doc:"Also run the other router and report the speedup.") in
  let placement_conv =
    let parse s =
      match Placement.of_name s with
      | Some p -> Ok p
      | None -> Error (`Msg (Fmt.str "unknown placement strategy %S" s))
    in
    Arg.conv (parse, fun ppf p -> Fmt.string ppf (Placement.name p))
  in
  let placement =
    Arg.(value & opt placement_conv (Placement.Reverse_traversal 1)
         & info [ "placement"; "p" ]
             ~doc:"Initial mapping: trivial, random[-seed], degree, sabre[-k].")
  in
  let optimize =
    Arg.(value & flag
         & info [ "optimize"; "O" ] ~doc:"Peephole-optimise before routing.")
  in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.") in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print schedule statistics (and, for the CODAR router, \
                   the internal instrumentation counters).")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~doc:"Write the timeline as CSV here.")
  in
  let json =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "json" ]
             ~doc:"Write the routing record as JSON ('-' or no argument = \
                   stdout); the schema is shared with `codar_cli batch`.")
  in
  let restarts =
    Arg.(value & opt int 8
         & info [ "restarts" ] ~doc:"Portfolio restarts (router = portfolio).")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~doc:"Portfolio restart RNG seed.")
  in
  let run input bench arch durations router objective metric output verify
      timeline compare_ placement optimize gantt stats csv json restarts seed =
   guard @@ fun () ->
    let source =
      match (input, bench) with
      | Some p, _ -> p
      | None, Some b -> b
      | None, None -> "?"
    in
    let router, objectives, metric =
      resolve_router_exn ~router ~objective ~metric ~durations
    in
    check_restarts restarts;
    let circuit = load_circuit ~arch input bench in
    let circuit = if optimize then Qc.Optimize.optimize circuit else circuit in
    let maqam = Arch.Maqam.make ~coupling:arch ~durations in
    let record, result =
      route_record ~restarts ~seed ~collect_stats:stats ~source ~placement
        ~objectives ~metric router maqam circuit (fun record t ->
          (record, Schedule.Timeline.copy t))
    in
    let router_stats = record.Report.Record.stats in
    Fmt.pr "device:        %s (%d qubits)@." (Arch.Coupling.name arch)
      (Arch.Coupling.n_qubits arch);
    Fmt.pr "durations:     %a@." Arch.Durations.pp durations;
    Fmt.pr "input:         %d gates, %d qubits, weighted depth (unrouted) %d@."
      (Qc.Circuit.length circuit) (Qc.Circuit.n_qubits circuit)
      (Qc.Metrics.weighted_depth ~weight:(Arch.Durations.of_gate durations) circuit);
    Fmt.pr "routed:        %d events, %d swaps, makespan %d@."
      record.Report.Record.events record.Report.Record.swaps
      result.Schedule.Timeline.makespan;
    (match router with
    | `Codar | `Portfolio ->
      Fmt.pr "objective:     %s@." record.Report.Record.objective
    | `Sabre | `Astar -> ());
    (match record.Report.Record.esp with
    | Some e -> Fmt.pr "esp:           %.6f@." e
    | None -> ());
    (match record.Report.Record.portfolio with
    | Some p ->
      Fmt.pr "portfolio:     restart %d of %d won by %s (scores %a)@."
        p.Report.Record.winner p.Report.Record.restarts
        p.Report.Record.metric
        Fmt.(array ~sep:(any " ") int)
        p.Report.Record.scores
    | None -> ());
    if compare_ then begin
      let other =
        match router with
        | `Codar | `Portfolio -> `Sabre
        | `Sabre | `Astar -> `Codar
      in
      let initial = Placement.compute placement ~maqam circuit in
      let o = Service.Engine.route_plain other maqam initial circuit in
      Fmt.pr "%s makespan: %d (ratio %.3f)@." (router_name other)
        o.Schedule.Routed.makespan
        (float_of_int o.Schedule.Routed.makespan
        /. float_of_int result.Schedule.Timeline.makespan)
    end;
    if verify then begin
      match Schedule.Verify.check ~maqam ~original:circuit result with
      | Ok () -> Fmt.pr "verify:        OK@."
      | Error e ->
        Fmt.pr "verify:        FAILED: %a@." Schedule.Verify.pp_error e;
        exit exit_route
    end;
    let listed = lazy (Schedule.Timeline.to_routed result) in
    if timeline then Fmt.pr "%a@." Schedule.Routed.pp (Lazy.force listed);
    let n_physical = Arch.Coupling.n_qubits arch in
    if stats then
      Fmt.pr "stats:         %a@." Schedule.Stats.pp
        (Schedule.Stats.of_timeline ~n_physical ~original:circuit result);
    (match router_stats with
    | Some s -> Fmt.pr "router stats:  %a@." Codar.Stats.pp s
    | None -> ());
    if gantt then
      Fmt.pr "%a@."
        (Schedule.Stats.pp_gantt ?width:None ~n_physical)
        (Lazy.force listed);
    (match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Schedule.Stats.to_csv (Lazy.force listed));
      close_out oc;
      Fmt.pr "wrote %s@." path);
    (match json with
    | None -> ()
    | Some "-" -> print_string (Report.Json.to_string (Report.Record.to_json record) ^ "\n")
    | Some path ->
      let oc = open_out path in
      Report.Json.output oc (Report.Record.to_json record);
      close_out oc;
      Fmt.pr "wrote %s@." path);
    match output with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Qasm.Printer.to_channel oc
        (Schedule.Routed.to_physical_circuit
           ~n_physical:(Arch.Coupling.n_qubits arch) (Lazy.force listed));
      close_out oc;
      Fmt.pr "wrote %s@." path
  in
  Cmd.v (Cmd.info "map" ~doc:"Route a circuit onto a device.")
    Term.(const run $ input $ bench $ arch $ durations $ router_arg
          $ objective_arg $ metric_arg $ output
          $ verify $ timeline $ compare_ $ placement $ optimize $ gantt
          $ stats $ csv $ json $ restarts $ seed)

(* Route many circuits in one invocation, fanned out over a deterministic
   domain pool: output (human and JSON) is identical for every --jobs. *)
let batch_cmd =
  let inputs =
    Arg.(value & opt_all file []
         & info [ "input"; "i" ] ~doc:"OpenQASM input file (repeatable).")
  in
  let benches =
    Arg.(value & opt_all string []
         & info [ "bench"; "b" ] ~doc:"Built-in benchmark name (repeatable).")
  in
  let fitting =
    Arg.(value & opt (some int) None
         & info [ "fitting" ]
             ~doc:"Also route every built-in benchmark with at most N qubits.")
  in
  let arch =
    Arg.(value & opt arch_conv Arch.Devices.ibm_q20_tokyo
         & info [ "arch"; "a" ] ~doc:arch_doc)
  in
  let durations =
    Arg.(value & opt durations_conv Arch.Durations.superconducting
         & info [ "durations"; "d" ] ~doc:"Duration profile: sc, ion, atom, uniform.")
  in
  let placement_conv =
    let parse s =
      match Placement.of_name s with
      | Some p -> Ok p
      | None -> Error (`Msg (Fmt.str "unknown placement strategy %S" s))
    in
    Arg.conv (parse, fun ppf p -> Fmt.string ppf (Placement.name p))
  in
  let placement =
    Arg.(value & opt placement_conv (Placement.Reverse_traversal 1)
         & info [ "placement"; "p" ] ~doc:"Initial mapping strategy.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ]
             ~doc:"Worker domains for the fan-out (0 = all cores). Results \
                   are bit-identical for every value (docs/PARALLEL.md).")
  in
  let restarts =
    Arg.(value & opt int 8
         & info [ "restarts" ] ~doc:"Portfolio restarts (router = portfolio).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Portfolio restart RNG seed.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ]
             ~doc:"Write per-job records as JSON here ('-' = stdout, which \
                   suppresses the human table).")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Collect CODAR instrumentation counters into each record.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Semantically verify every routed result; exit 1 on any \
                   failure.")
  in
  let run inputs benches fitting arch durations router objective metric
      placement jobs restarts seed json stats verify =
   guard @@ fun () ->
    let router, objectives, metric =
      resolve_router_exn ~router ~objective ~metric ~durations
    in
    check_restarts restarts;
    let maqam = Arch.Maqam.make ~coupling:arch ~durations in
    (* load everything sequentially before the fan-out: QASM parsing and
       Lazy.force must not run concurrently *)
    let of_bench (e : Workloads.Suite.entry) = (e.name, Lazy.force e.circuit) in
    let named =
      List.filter_map
        (fun b ->
          match Workloads.Suite.find b with
          | Some e -> Some (of_bench e)
          | None ->
            Fmt.failwith "unknown benchmark %S (see `codar_cli benchmarks`)" b)
        benches
    in
    let suite =
      match fitting with
      | None -> []
      | Some n -> List.map of_bench (Workloads.Suite.fitting ~max_qubits:n)
    in
    let max_qubits = Arch.Coupling.n_qubits arch in
    let files =
      List.map (fun p -> (p, Qasm.Parser.parse_file ~max_qubits p)) inputs
    in
    let targets = Array.of_list (named @ suite @ files) in
    if Array.length targets = 0 then
      Fmt.failwith "nothing to route: give --bench, --input or --fitting";
    let jobs = if jobs = 0 then Pool.default_jobs () else jobs in
    let t0 = Unix.gettimeofday () in
    let results =
      Pool.with_pool ~jobs (fun pool ->
          Pool.map pool
            (fun _ (source, circuit) ->
              route_record ~restarts ~seed ~collect_stats:stats ~source
                ~placement ~objectives ~metric router maqam circuit
                (fun record routed ->
                  ( record,
                    (not verify)
                    || Result.is_ok
                         (Schedule.Verify.check ~maqam ~original:circuit routed)
                  )))
            targets)
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let records = Array.map fst results in
    let human = json <> Some "-" in
    if human then begin
      Fmt.pr "%-16s %4s %7s %9s %9s %6s %9s@." "source" "n" "gates"
        "weighted" "raw" "swaps" "wall-ms";
      Array.iter
        (fun (r : Report.Record.t) ->
          Fmt.pr "%-16s %4d %7d %9d %9d %6d %9.1f@." r.source r.n_qubits
            r.gates r.weighted_depth r.raw_depth r.swaps (r.wall_s *. 1e3))
        records;
      let total f = Array.fold_left (fun acc r -> acc + f r) 0 records in
      Fmt.pr
        "routed %d circuits on %s [%s, %s]: total weighted depth %d, %d \
         swaps, %.2fs wall (%d job%s)@."
        (Array.length records) (Arch.Coupling.name arch)
        (Arch.Durations.name durations) (router_name router)
        (total (fun r -> r.Report.Record.weighted_depth))
        (total (fun r -> r.Report.Record.swaps))
        wall_s jobs
        (if jobs = 1 then "" else "s")
    end;
    (match json with
    | None -> ()
    | Some dest ->
      let doc =
        Report.Json.Obj
          [
            ("schema", Report.Json.String "codar-batch/1");
            ("arch", Report.Json.String (Arch.Coupling.name arch));
            ("durations", Report.Json.String (Arch.Durations.name durations));
            ("router", Report.Json.String (router_name router));
            ("jobs", Report.Json.Int jobs);
            ("wall_s", Report.Json.Float wall_s);
            ( "records",
              Report.Json.List
                (Array.to_list
                   (Array.map Report.Record.to_json records)) );
          ]
      in
      if dest = "-" then print_string (Report.Json.to_string doc ^ "\n")
      else begin
        let oc = open_out dest in
        Report.Json.output oc doc;
        close_out oc;
        if human then Fmt.pr "wrote %s@." dest
      end);
    if verify then begin
      let failed =
        Array.to_list results
        |> List.filter_map (fun ((r : Report.Record.t), ok) ->
               if ok then None else Some r.Report.Record.source)
      in
      match failed with
      | [] -> if human then Fmt.pr "verify:        OK (%d circuits)@." (Array.length results)
      | l ->
        Fmt.epr "verify FAILED: %a@." Fmt.(list ~sep:comma string) l;
        exit exit_route
    end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Route many circuits with a parallel, deterministic job pool.")
    Term.(const run $ inputs $ benches $ fitting $ arch $ durations
          $ router_arg $ objective_arg $ metric_arg
          $ placement $ jobs $ restarts $ seed $ json $ stats $ verify)

(* ---------------------------------------------------------------- service *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the daemon.")

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Worker domains routing requests (0 = all cores).")
  in
  let cache_entries =
    Arg.(
      value & opt int 1024
      & info [ "cache-entries" ] ~doc:"Routing-cache entry cap.")
  in
  let cache_bytes =
    Arg.(
      value & opt (some int) None
      & info [ "cache-bytes" ]
          ~doc:"Routing-cache byte cap (approximate; no cap by default).")
  in
  let cache_file =
    Arg.(
      value & opt (some string) None
      & info [ "cache-file" ]
          ~doc:"Persist the cache here: loaded at startup when present, \
                saved on shutdown and by `client cache-save`.")
  in
  let max_request =
    Arg.(
      value & opt (some int) None
      & info [ "max-request-bytes" ]
          ~doc:"Per-frame request size limit (default 8 MiB).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ]
          ~doc:"Bound on queued-but-not-yet-routing jobs (back-pressure); \
                requests beyond it are refused with the typed `overloaded` \
                error.")
  in
  let timeout =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ]
          ~doc:"Per-request deadline in milliseconds: bounds both a stalled \
                mid-frame request read and the wait for a routing outcome; \
                expiry answers the typed `deadline_exceeded` error. No \
                deadline by default.")
  in
  let max_conns =
    Arg.(
      value & opt (some int) None
      & info [ "max-connections" ]
          ~doc:"Concurrent-connection cap (default 960, safely under the \
                select() FD_SETSIZE limit of 1024); at the cap, further \
                connections wait in the kernel listen backlog until a slot \
                frees.")
  in
  let faults =
    Arg.(
      value & opt (some int) None
      & info [ "faults" ] ~docv:"SEED"
          ~doc:"Arm the deterministic fault-injection plan with this seed \
                (testing only): short reads, mid-frame EOFs, stalls, write \
                errors, pool task exceptions and persistence faults, per \
                $(b,--fault-profile). See docs/ROBUSTNESS.md.")
  in
  let fault_profile =
    Arg.(
      value
      & opt (enum [ ("soak", `Soak); ("persist-crash", `Persist_crash) ]) `Soak
      & info [ "fault-profile" ]
          ~doc:"Which plan $(b,--faults) arms: `soak` (low-rate faults at \
                every point) or `persist-crash` (every cache save stalls \
                3 s mid-persist, for kill -9 crash-recovery drills).")
  in
  let run socket jobs cache_entries cache_bytes cache_file max_request queue
      timeout max_conns faults fault_profile =
    guard @@ fun () ->
    let jobs = if jobs = 0 then Pool.default_jobs () else jobs in
    (match faults with
    | Some seed ->
      let name, plan =
        match fault_profile with
        | `Soak -> ("soak", Faults.soak ~seed)
        | `Persist_crash -> ("persist-crash", Faults.persist_crash ~seed)
      in
      Faults.arm plan;
      Fmt.epr "codar serve: fault plan armed (profile %s, seed %d)@." name
        seed
    | None -> ());
    let cfg =
      Service.Server.config ~jobs ~cache_entries ?cache_bytes ?cache_file
        ?max_request_bytes:max_request ~queue_capacity:queue
        ?timeout_ms:timeout ?max_connections:max_conns
        ~handle_signals:true ~socket_path:socket ()
    in
    let svc =
      Service.Server.run
        ~on_ready:(fun () ->
          Fmt.pr "codar serve: listening on %s (%d job%s, cache %d entries)@."
            socket jobs
            (if jobs = 1 then "" else "s")
            cache_entries)
        cfg
    in
    Fmt.pr "codar serve: %a@." Service.Server.pp_counters svc
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the routing daemon: a Unix-socket compile service with a \
             content-addressed routing cache (docs/SERVICE.md).")
    Term.(
      const run $ socket_arg $ jobs $ cache_entries $ cache_bytes $ cache_file
      $ max_request $ queue $ timeout $ max_conns $ faults
      $ fault_profile)

let client_cmd =
  let op =
    Arg.(
      value
      & pos 0
          (enum
             [ ("ping", `Ping); ("route", `Route); ("stats", `Stats);
               ("shutdown", `Shutdown); ("cache-info", `Cache_info);
               ("cache-clear", `Cache_clear); ("cache-save", `Cache_save);
               ("cache-load", `Cache_load); ("raw", `Raw) ])
          `Ping
      & info [] ~docv:"OP"
          ~doc:"One of ping, route, stats, shutdown, cache-info, \
                cache-clear, cache-save, cache-load, raw (forward JSON \
                frames from stdin).")
  in
  let input =
    Arg.(
      value & opt (some file) None
      & info [ "input"; "i" ]
          ~doc:"OpenQASM file to route (sent inline to the daemon).")
  in
  let bench =
    Arg.(
      value & opt (some string) None
      & info [ "bench"; "b" ] ~doc:"Built-in benchmark name to route.")
  in
  let arch =
    Arg.(value & opt (some string) None & info [ "arch"; "a" ] ~doc:arch_doc)
  in
  let durations =
    Arg.(value & opt (some string) None & info [ "durations"; "d" ] ~doc:"Duration profile.")
  in
  let router =
    Arg.(value & opt (some string) None & info [ "router"; "r" ] ~doc:"Routing algorithm.")
  in
  let objective =
    Arg.(
      value & opt (some string) None
      & info [ "objective" ]
          ~doc:
            ("Routing objective (codar/portfolio routers): "
           ^ objective_names ^ " — or a comma list for the portfolio."))
  in
  let metric =
    Arg.(
      value & opt (some string) None
      & info [ "metric" ]
          ~doc:"Portfolio selection metric: makespan, esp, depth.")
  in
  let placement =
    Arg.(value & opt (some string) None & info [ "placement"; "p" ] ~doc:"Initial mapping strategy.")
  in
  let restarts =
    Arg.(value & opt (some int) None & info [ "restarts" ] ~doc:"Portfolio restarts.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Portfolio RNG seed.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Embed router instrumentation in the record.")
  in
  let file =
    Arg.(
      value & opt (some string) None
      & info [ "file" ] ~doc:"Cache file for cache-save / cache-load.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Send the request N times pipelined over the one persistent \
                connection (amortises connect cost; replies print in \
                order). Only meaningful for idempotent ops — route replies \
                beyond the first are answered from the cache.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ]
          ~doc:"Retry an `overloaded` reply up to this many times with \
                seeded-jitter exponential backoff (0 = fail immediately).")
  in
  let retry_base_ms =
    Arg.(
      value & opt int 5
      & info [ "retry-base-ms" ]
          ~doc:"Base backoff for $(b,--retries): retry $(i,k) sleeps \
                base*2^k ms plus deterministic jitter.")
  in
  (* exit code chosen from the reply so shell tests can assert failure
     classes: route_failed -> 4, io -> 5, every other error -> 2 *)
  let exit_of_reply line =
    match Report.Json.parse line with
    | Ok reply -> (
      match Report.Json.(member "ok" reply) with
      | Some (Report.Json.Bool true) -> 0
      | _ -> (
        match Report.Json.member "code" reply with
        | Some (Report.Json.String "route_failed") -> exit_route
        | Some (Report.Json.String "io") -> exit_io
        | Some _ | None -> exit_usage))
    | Error _ -> exit_io
  in
  let run socket op input bench arch durations router objective metric
      placement restarts seed stats file repeat retries retry_base_ms =
    guard @@ fun () ->
    if retries < 0 then Fmt.failwith "--retries must be >= 0";
    if repeat < 1 then Fmt.failwith "--repeat must be >= 1";
    let opt_str key = Option.map (fun v -> (key, Report.Json.String v)) in
    let opt_int key = Option.map (fun v -> (key, Report.Json.Int v)) in
    let frame =
      match op with
      | `Ping -> Some (Report.Json.Obj [ ("op", Report.Json.String "ping") ])
      | `Stats -> Some (Report.Json.Obj [ ("op", Report.Json.String "stats") ])
      | `Shutdown ->
        Some (Report.Json.Obj [ ("op", Report.Json.String "shutdown") ])
      | `Cache_info | `Cache_clear | `Cache_save | `Cache_load ->
        let action =
          match op with
          | `Cache_info -> "info"
          | `Cache_clear -> "clear"
          | `Cache_save -> "save"
          | _ -> "load"
        in
        Some
          (Report.Json.Obj
             ([
                ("op", Report.Json.String "cache");
                ("action", Report.Json.String action);
              ]
             @ List.filter_map Fun.id [ opt_str "file" file ]))
      | `Route ->
        let source =
          match (input, bench) with
          | Some path, None ->
            let ic = open_in_bin path in
            let text =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            ("qasm", Report.Json.String text)
          | None, Some b -> ("bench", Report.Json.String b)
          | Some _, Some _ -> Fmt.failwith "--input and --bench are exclusive"
          | None, None -> Fmt.failwith "one of --input or --bench is required"
        in
        Some
          (Report.Json.Obj
             ([ ("op", Report.Json.String "route"); source ]
             @ List.filter_map Fun.id
                 [
                   opt_str "arch" arch;
                   opt_str "durations" durations;
                   opt_str "router" router;
                   opt_str "objective" objective;
                   opt_str "metric" metric;
                   opt_str "placement" placement;
                   opt_int "restarts" restarts;
                   opt_int "seed" seed;
                   (if stats then Some ("stats", Report.Json.Bool true)
                    else None);
                 ]))
      | `Raw -> None
    in
    let ask t line =
      if retries = 0 then Service.Client.request t line
      else
        Service.Client.request_with_retry ~attempts:retries
          ~base_delay_ms:retry_base_ms t line
    in
    Service.Client.with_connection socket (fun t ->
        match frame with
        | Some frame when repeat > 1 ->
          let line = Report.Json.to_string ~indent:0 frame in
          let replies =
            Service.Client.request_many t (List.init repeat (fun _ -> line))
          in
          List.iter print_endline replies;
          let code =
            List.fold_left
              (fun acc reply ->
                if acc <> 0 then acc else exit_of_reply reply)
              0 replies
          in
          if code <> 0 then exit code
        | Some frame ->
          let reply = ask t (Report.Json.to_string ~indent:0 frame) in
          print_endline reply;
          let code = exit_of_reply reply in
          if code <> 0 then exit code
        | None ->
          (* raw passthrough: frames from stdin, replies to stdout; the
             daemon answers no blank (keep-alive) line, so none is sent *)
          let rec pump () =
            match In_channel.input_line stdin with
            | None -> ()
            | Some "" -> pump ()
            | Some line ->
              print_endline (ask t line);
              pump ()
          in
          pump ())
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running `codar_cli serve` daemon.")
    Term.(
      const run $ socket_arg $ op $ input $ bench $ arch $ durations $ router
      $ objective $ metric $ placement $ restarts $ seed $ stats $ file
      $ repeat $ retries $ retry_base_ms)

let fuzz_cmd =
  let cases =
    Arg.(value & opt int 200
         & info [ "cases"; "n" ] ~doc:"Number of generated cases.")
  in
  let seed =
    Arg.(value & opt int 7
         & info [ "seed" ]
             ~doc:"Run seed. Case $(i,i) derives its own seed \
                   deterministically, so one integer reproduces the run.")
  in
  let max_qubits =
    Arg.(value & opt int 5
         & info [ "max-qubits" ]
             ~doc:"Upper bound on generated circuit width (each device's \
                   own width also caps it).")
  in
  let archs =
    Arg.(value & opt_all string []
         & info [ "arch"; "a" ]
             ~doc:"Device to rotate cases through (repeatable). Defaults \
                   to q5, grid-2x3 and ring-8.")
  in
  let durations =
    Arg.(value & opt string "superconducting"
         & info [ "durations" ] ~doc:"Duration model name.")
  in
  let sim_max_qubits =
    Arg.(value & opt int 10
         & info [ "sim-max-qubits" ]
             ~doc:"Largest device width the statevector oracle simulates.")
  in
  let shrink_budget =
    Arg.(value & opt int 300
         & info [ "shrink-budget" ]
             ~doc:"Oracle evaluations the shrinker may spend per failure.")
  in
  let json =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "json" ] ~docv:"PATH"
             ~doc:"Write the run summary as JSON to $(docv) ('-' = stdout). \
                   The summary is byte-identical across runs of the same \
                   seed.")
  in
  let corpus =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Write shrunk counterexamples into $(docv) as replayable \
                   .qasm files.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"DIR"
             ~doc:"Replay every corpus entry under $(docv) through the \
                   oracle stack instead of generating new cases.")
  in
  let faults =
    Arg.(value & opt (some int) None
         & info [ "faults" ] ~docv:"SEED"
             ~doc:"Additionally drive every case's routing record through \
                   the crash-safe cache-persistence path under a per-case \
                   fault plan (disk-full and silent-corruption injections) \
                   derived from $(docv). A violated persistence invariant \
                   fails the case as oracle `fault-persistence`.")
  in
  let objectives =
    Arg.(value & flag
         & info [ "objectives" ]
             ~doc:
               ("Additionally route every case under the "
              ^ Objective.name Objective.t2
              ^ " objective; the result must still pass verification and \
                 statevector equivalence. It routes as "
              ^ Objective.name Objective.makespan
              ^ " unless the duration profile makes its issue threshold 1 \
                 (ion, atom)."))
  in
  let min_gates =
    Arg.(value & opt (some int) None
         & info [ "min-gates" ] ~docv:"N"
             ~doc:"Floor each sampled case's body-gate count at $(docv) \
                   (width unchanged) — drives wide devices through \
                   full-size circuits (the large-scale tier).")
  in
  let run cases seed max_qubits archs durations sim_max_qubits shrink_budget
      json corpus replay faults objectives min_gates =
    guard @@ fun () ->
    match replay with
    | Some dir ->
      let entries = Fuzz.Corpus.load_dir dir in
      let failed = ref 0 in
      List.iter
        (fun (path, (e : Fuzz.Corpus.entry)) ->
          let report = Fuzz.Harness.replay ~sim_max_qubits e in
          if Fuzz.Oracle.passed report then
            Fmt.pr "ok   %s (%s on %s, %d checks)@." path e.oracle e.device
              report.checks
          else begin
            incr failed;
            Fmt.pr "FAIL %s@." path;
            List.iter
              (fun f -> Fmt.pr "     %a@." Fuzz.Oracle.pp_failure f)
              report.failures
          end)
        entries;
      Fmt.pr "replayed %d corpus entries, %d failing@." (List.length entries)
        !failed;
      if !failed > 0 then exit exit_route
    | None ->
      if Fuzz.Corpus.durations_of_name durations = None then
        Fmt.failwith "unknown duration profile %S" durations;
      let devices =
        match archs with
        | [] -> Fuzz.Harness.default_devices
        | names ->
          List.map
            (fun n ->
              match Arch.Devices.by_name n with
              | Some c -> (String.lowercase_ascii n, c)
              | None -> failwith (unknown_arch n))
            names
      in
      let cfg =
        {
          Fuzz.Harness.cases;
          seed;
          max_qubits;
          devices;
          durations;
          sim_max_qubits;
          shrink_budget;
          corpus_dir = corpus;
          faults;
          objectives;
          min_gates;
        }
      in
      let result = Fuzz.Harness.run cfg in
      (match json with
      | Some "-" ->
        print_endline
          (Report.Json.to_string (Fuzz.Harness.summary_json result))
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc
              (Report.Json.to_string (Fuzz.Harness.summary_json result));
            output_char oc '\n')
      | None -> ());
      Fmt.epr "fuzz: %d cases seed=%d devices=%s durations=%s@." result.ran
        seed
        (String.concat "," (List.map fst devices))
        durations;
      Fmt.epr "fuzz: %d failures, %d oracle checks, statevector oracle on \
               %d cases@."
        (List.length result.failed)
        result.checks result.sim_checked;
      List.iter
        (fun (f : Fuzz.Harness.case_failure) ->
          Fmt.epr "@.FAIL case %d on %s (oracles: %s)@." f.index f.device
            (String.concat "," f.oracles);
          Fmt.epr "  %s@." f.detail;
          Fmt.epr "  reproduce: codar_cli fuzz --seed %d --cases %d \
                   --max-qubits %d (case seed %d)@."
            seed result.ran max_qubits f.case_seed;
          Option.iter (Fmt.epr "  corpus: %s@.") f.corpus_path;
          Fmt.epr "  shrunk circuit:@.%s@."
            (Qasm.Printer.to_string f.shrunk))
        result.failed;
      if result.failed <> [] then exit exit_route
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random circuits through every router \
             and the oracle stack."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Generates seeded random circuits and routes each through \
              CODAR, SABRE, the A* mapper and the reference remapper on a \
              rotation of devices. Every result must pass schedule \
              verification; small measure-free cases are additionally \
              checked for exact statevector equivalence, CODAR is diffed \
              against the reference implementation event-by-event, and the \
              QASM printer/parser and cache fingerprint must round-trip. \
              Failures are shrunk to minimal counterexamples and can be \
              filed into a corpus directory for regression replay.";
         ])
    Term.(
      const run $ cases $ seed $ max_qubits $ archs $ durations
      $ sim_max_qubits $ shrink_budget $ json $ corpus $ replay $ faults
      $ objectives $ min_gates)

let devices_cmd =
  let run () =
    List.iter
      (fun c ->
        Fmt.pr "%-22s %3d qubits  %4d edges  coords:%b@."
          (Arch.Coupling.name c)
          (Arch.Coupling.n_qubits c)
          (List.length (Arch.Coupling.edges c))
          (Arch.Coupling.coords c <> None))
      (Arch.Devices.evaluation_devices
      @ [
          Arch.Devices.ibm_q5;
          Arch.Devices.linear 8;
          Arch.Devices.fully_connected 11;
          Arch.Devices.grid ~rows:10 ~cols:10;
          Arch.Devices.heavy_hex ~distance:7;
          Arch.Devices.heavy_hex ~distance:13;
        ])
  in
  Cmd.v (Cmd.info "devices" ~doc:"List known devices.") Term.(const run $ const ())

let benchmarks_cmd =
  let run () =
    List.iter
      (fun (e : Workloads.Suite.entry) ->
        Fmt.pr "%-16s %-8s %3d qubits@." e.name e.family e.n_qubits)
      Workloads.Suite.all;
    Fmt.pr "total: %d benchmarks@." (List.length Workloads.Suite.all);
    List.iter
      (fun (e : Workloads.Suite.entry) ->
        Fmt.pr "%-16s %-8s %3d qubits  (large tier)@." e.name e.family
          e.n_qubits)
      Workloads.Suite.large;
    Fmt.pr "large tier: %d extra benchmarks@."
      (List.length Workloads.Suite.large)
  in
  Cmd.v (Cmd.info "benchmarks" ~doc:"List the 71-benchmark suite.")
    Term.(const run $ const ())

let () =
  let info = Cmd.info "codar_cli" ~version:"1.0.0"
      ~doc:"Contextual duration-aware qubit mapping (CODAR, DAC 2020)." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            map_cmd; batch_cmd; serve_cmd; client_cmd; fuzz_cmd; devices_cmd;
            benchmarks_cmd;
          ]))
