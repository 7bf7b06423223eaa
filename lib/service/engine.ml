(* Request resolution and the one timed routing job.

   This used to live in bin/codar_cli.ml as [route_record]; it moved here
   so the CLI's [map]/[batch] and the daemon route through the *same* code
   path and their records can never drift apart. *)

type spec = {
  source_name : string;
  circuit : Qc.Circuit.t;
  maqam : Arch.Maqam.t;
  router : [ `Codar | `Sabre | `Astar | `Portfolio ];
  placement : Placement.strategy;
  objectives : Objective.t list;
      (* non-empty; head drives `Codar, the whole list cycles over
         portfolio restarts *)
  metric : Codar.Portfolio.metric;
  restarts : int;
  seed : int;
  collect_stats : bool;
}

let durations_of_name = function
  | "sc" | "superconducting" -> Some Arch.Durations.superconducting
  | "ion" | "ion-trap" -> Some Arch.Durations.ion_trap
  | "atom" | "neutral-atom" -> Some Arch.Durations.neutral_atom
  | "uniform" -> Some Arch.Durations.uniform
  | _ -> None

let router_of_name = function
  | "codar" -> Some `Codar
  | "sabre" -> Some `Sabre
  | "astar" -> Some `Astar
  | "portfolio" -> Some `Portfolio
  | _ -> None

let router_name = function
  | `Codar -> "codar"
  | `Sabre -> "sabre"
  | `Astar -> "astar"
  | `Portfolio -> "portfolio"

(* "codar:t2" sugar: split a router name into the base name and an
   inline objective suffix. *)
let split_router s =
  match String.index_opt s ':' with
  | None -> (s, None)
  | Some i ->
    ( String.sub s 0 i,
      Some (String.sub s (i + 1) (String.length s - i - 1)) )

(* Resolve the router string plus optional objective/metric fields into the
   typed triple. The rules:
   - the inline suffix and an explicit objective field must not conflict;
   - codar takes exactly one objective name, the portfolio a comma list;
   - sabre/astar accept no objective (they have no SWAP scorer to steer);
   - the metric belongs to the portfolio alone, and esp needs a calibrated
     duration profile (checked here so the daemon replies bad_request, not
     route_failed). *)
let resolve_router ~router ~objective ~metric ~durations =
  let ( let* ) = Result.bind in
  let base, inline = split_router router in
  let* router =
    match router_of_name base with
    | Some r -> Ok r
    | None -> Error (Printf.sprintf "unknown router %S" base)
  in
  let* obj_text =
    match (inline, objective) with
    | Some a, Some b when a <> b ->
      Error
        (Printf.sprintf
           "router %S and objective %S conflict — give the objective once"
           (base ^ ":" ^ a) b)
    | Some a, _ -> Ok (Some a)
    | None, o -> Ok o
  in
  let* objectives =
    match (router, obj_text) with
    | _, None -> Ok [ Objective.makespan ]
    | (`Sabre | `Astar), Some o ->
      Error
        (Printf.sprintf "router %S does not take an objective (got %S)"
           (router_name router) o)
    | `Codar, Some o -> (
      match Objective.of_name o with
      | Some obj -> Ok [ obj ]
      | None ->
        Error
          (Printf.sprintf "unknown objective %S (expected one of %s)" o
             (String.concat ", " Objective.names)))
    | `Portfolio, Some o -> Objective.list_of_string o
  in
  let* metric =
    match (router, metric) with
    | _, None -> Ok Codar.Portfolio.Makespan
    | (`Codar | `Sabre | `Astar), Some m ->
      Error
        (Printf.sprintf
           "metric %S is only valid for the portfolio router (got router %S)"
           m (router_name router))
    | `Portfolio, Some m -> (
      match Codar.Portfolio.metric_of_name m with
      | Some metric -> Ok metric
      | None ->
        Error
          (Printf.sprintf "unknown metric %S (expected one of %s)" m
             (String.concat ", " Codar.Portfolio.metric_names)))
  in
  let* () =
    if
      metric = Codar.Portfolio.Esp
      && Arch.Calibration.for_durations durations = None
    then
      Error
        (Printf.sprintf
           "metric \"esp\" needs a calibrated duration profile, but %S has \
            no calibration data"
           (Arch.Durations.name durations))
    else Ok ()
  in
  Ok (router, objectives, metric)

(* The canonical-encoding image of the objective selection: the comma list
   for fingerprints and the head name for single-route records. *)
let objectives_string objs = Objective.string_of_list objs

(* Suite circuits are lazy; forcing is not safe under concurrent forcing
   from several connection threads, so serialise it. *)
let bench_mutex = Mutex.create ()

let find_bench name =
  Mutex.lock bench_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock bench_mutex)
    (fun () ->
      match Workloads.Suite.find name with
      | Some e -> Some (Lazy.force e.Workloads.Suite.circuit)
      | None -> None)

let ( let* ) = Result.bind

let too_wide coupling qubits =
  Printf.sprintf "circuit needs %d qubits but %s has only %d" qubits
    (Arch.Coupling.name coupling)
    (Arch.Coupling.n_qubits coupling)

let check_restarts n =
  if n < 1 || n > Codar.Portfolio.max_restarts then
    Error
      (Printf.sprintf "restarts must be in 1..%d (got %d)"
         Codar.Portfolio.max_restarts n)
  else Ok ()

let spec_of_route_req (r : Protocol.route_req) =
  (* the device bounds the parse; its own error still comes after the
     source's *)
  let device = Arch.Devices.by_name r.Protocol.arch in
  let* source_name, circuit =
    match r.Protocol.source with
    | `Bench name -> (
      match find_bench name with
      | Some c -> Ok (name, c)
      | None -> Error (Printf.sprintf "unknown benchmark %S" name))
    | `Qasm text -> (
      match
        Qasm.Parser.parse
          ?max_qubits:(Option.map Arch.Coupling.n_qubits device)
          text
      with
      | c -> Ok ("<inline>", c)
      | exception Qasm.Parser.Parse_error (line, msg) ->
        Error (Printf.sprintf "QASM parse error at line %d: %s" line msg)
      | exception Qasm.Lexer.Lex_error (line, msg) ->
        Error (Printf.sprintf "QASM lex error at line %d: %s" line msg)
      | exception Qasm.Parser.Too_wide { qubits; _ } ->
        Error (too_wide (Option.get device) qubits))
  in
  let* coupling =
    match device with
    | Some c -> Ok c
    | None ->
      Error
        (Printf.sprintf
           "unknown architecture %S: not a device name, or past the bound of \
            %d qubits and %d couplers"
           r.Protocol.arch Arch.Coupling.max_qubits
           (8 * Arch.Coupling.max_qubits))
  in
  let* durations =
    match durations_of_name r.Protocol.durations with
    | Some d -> Ok d
    | None ->
      Error (Printf.sprintf "unknown duration profile %S" r.Protocol.durations)
  in
  let* router, objectives, metric =
    resolve_router ~router:r.Protocol.router ~objective:r.Protocol.objective
      ~metric:r.Protocol.metric ~durations
  in
  let* placement =
    match Placement.of_name r.Protocol.placement with
    | Some p -> Ok p
    | None ->
      Error
        (Printf.sprintf
           "unknown placement strategy %S (sabre-<k> takes k in 1..%d)"
           r.Protocol.placement Placement.max_passes)
  in
  let* () = check_restarts r.Protocol.restarts in
  let* () =
    if Qc.Circuit.n_qubits circuit > Arch.Coupling.n_qubits coupling then
      Error (too_wide coupling (Qc.Circuit.n_qubits circuit))
    else Ok ()
  in
  Ok
    {
      source_name;
      circuit;
      maqam = Arch.Maqam.make ~coupling ~durations;
      router;
      placement;
      objectives;
      metric;
      restarts = r.Protocol.restarts;
      seed = r.Protocol.seed;
      collect_stats = r.Protocol.collect_stats;
    }

(* Every field, each self-delimiting (strings length-prefixed, ints
   ';'-terminated), so distinct requests never share a key. The record
   pattern names every field: a new request field fails to compile here
   until the key covers it. *)
let request_key
    {
      Protocol.source;
      arch;
      durations;
      router;
      placement;
      objective;
      metric;
      restarts;
      seed;
      collect_stats;
    } =
  let kind, text =
    match source with `Bench name -> ('b', name) | `Qasm text -> ('q', text)
  in
  let b = Buffer.create (String.length text + 64) in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let opt = function
    | None -> Buffer.add_char b '-'
    | Some s ->
      Buffer.add_char b '+';
      str s
  in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ';'
  in
  Buffer.add_char b kind;
  str text;
  str arch;
  str durations;
  str router;
  str placement;
  opt objective;
  opt metric;
  int restarts;
  int seed;
  Buffer.add_char b (if collect_stats then 't' else 'f');
  Buffer.contents b

let fingerprint spec =
  Cache.Fingerprint.compute ~collect_stats:spec.collect_stats
    ~objective:(objectives_string spec.objectives)
    ~metric:(Codar.Portfolio.metric_name spec.metric)
    ~circuit:spec.circuit ~maqam:spec.maqam
    ~router:(router_name spec.router)
    ~placement:(Placement.name spec.placement)
    ~restarts:spec.restarts ~seed:spec.seed ()

(* One routing pass; [k] reads the schedule, which CODAR lends from its
   domain's working arrays (Codar.Remapper.route). *)
let route_timeline ?stats ~objective router maqam initial circuit k =
  match router with
  | `Codar ->
    Codar.Remapper.route
      ~config:{ Codar.Remapper.default_config with objective }
      ?stats ~maqam ~initial circuit k
  | `Sabre -> k (Sabre.Router.timeline ~maqam ~initial circuit)
  | `Astar -> k (Astar.Router.timeline ~maqam ~initial circuit)

let route_plain ?stats ?(objective = Objective.makespan) router maqam initial
    circuit =
  route_timeline ?stats ~objective router maqam initial circuit
    Schedule.Timeline.to_routed

let route_with spec k =
  let {
    circuit;
    maqam;
    router;
    placement;
    objectives;
    metric;
    restarts;
    seed;
    collect_stats;
    _;
  } =
    spec
  in
  let initial = Placement.compute placement ~maqam circuit in
  let stats =
    match (collect_stats, router) with
    | true, (`Codar | `Portfolio) -> Some (Codar.Stats.create ())
    | _ -> None
  in
  let objective =
    match objectives with o :: _ -> o | [] -> Objective.makespan
  in
  let t0 = Unix.gettimeofday () in
  (* the record, timed up to the schedule's hand-over, and [k] *)
  let finish ~objective portfolio timeline =
    let wall_s = Unix.gettimeofday () -. t0 in
    k
      (Report.Record.of_timeline ~source:spec.source_name
         ~router:(router_name router)
         ~placement:(Placement.name placement)
         ~objective ~wall_s ?stats ?portfolio ~maqam ~original:circuit
         timeline)
      timeline
  in
  match router with
  | (`Codar | `Sabre | `Astar) as r ->
    route_timeline ?stats ~objective r maqam initial circuit
      (finish
         ~objective:
           (match r with `Codar -> Objective.name objective | _ -> "makespan")
         None)
  | `Portfolio ->
    let refine layout =
      Sabre.Initial_mapping.reverse_traversal ~initial:layout ~maqam circuit
    in
    let o =
      Codar.Portfolio.run ~restarts ~seed ~refine ~objectives ~metric ~maqam
        ~initial circuit
    in
    let winner_objective = o.Codar.Portfolio.objectives.(o.Codar.Portfolio.winner) in
    (* portfolio restarts are uninstrumented (shared counters are not
       domain-safe); re-route the winner alone — under the winner's own
       objective — to report its stats *)
    (match stats with
    | Some s ->
      Codar.Remapper.route
        ~config:
          { Codar.Remapper.default_config with objective = winner_objective }
        ~stats:s ~maqam ~initial:o.Codar.Portfolio.routed.Schedule.Timeline.initial
        circuit ignore
    | None -> ());
    finish ~objective:(Objective.name winner_objective)
      (Some
        {
          Report.Record.restarts = Array.length o.Codar.Portfolio.scores;
          winner = o.Codar.Portfolio.winner;
          scores = o.Codar.Portfolio.scores;
          metric = Codar.Portfolio.metric_name o.Codar.Portfolio.metric;
          metric_scores = o.Codar.Portfolio.metric_scores;
          objectives = Array.map Objective.name o.Codar.Portfolio.objectives;
        })
      o.Codar.Portfolio.routed

let route spec =
  route_with spec (fun record t -> (record, Schedule.Timeline.to_routed t))

let record spec = route_with spec (fun record _ -> record)
