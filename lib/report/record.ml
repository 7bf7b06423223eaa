type portfolio = {
  restarts : int;
  winner : int;
  scores : int array;
  metric : string;
  metric_scores : float array;
  objectives : string array;
}

type t = {
  source : string;
  arch : string;
  n_physical : int;
  durations : string;
  router : string;
  placement : string;
  objective : string;
  n_qubits : int;
  gates : int;
  unrouted_weighted_depth : int;
  weighted_depth : int;
  raw_depth : int;
  events : int;
  swaps : int;
  esp : float option;
  wall_s : float;
  stats : Codar.Stats.t option;
  portfolio : portfolio option;
}

let make ~source ~router ~placement ?(objective = "makespan") ~wall_s ?stats
    ?portfolio ~maqam ~original (routed : Schedule.Routed.t) =
  let coupling = Arch.Maqam.coupling maqam in
  let durations = Arch.Maqam.durations maqam in
  let n_physical = Arch.Coupling.n_qubits coupling in
  {
    source;
    arch = Arch.Coupling.name coupling;
    n_physical;
    durations = Arch.Durations.name durations;
    router;
    placement;
    objective;
    n_qubits = Qc.Circuit.n_qubits original;
    gates = Qc.Circuit.length original;
    unrouted_weighted_depth =
      Qc.Metrics.weighted_depth
        ~weight:(Arch.Durations.of_gate durations)
        original;
    weighted_depth = routed.Schedule.Routed.makespan;
    raw_depth = Schedule.Routed.raw_depth ~n_physical routed;
    events = Schedule.Routed.gate_count routed;
    swaps = Schedule.Routed.swap_count routed;
    esp =
      (* analytic success estimate, only when the duration profile has
         calibration data — the cross-objective comparison column *)
      Option.map
        (fun calibration ->
          Sim.Reliability.estimated_success ~calibration ~n_physical routed)
        (Arch.Calibration.for_durations durations);
    wall_s;
    stats;
    portfolio;
  }

let stats_to_json (s : Codar.Stats.t) =
  Json.Obj
    [
      ("cf_recomputes", Json.Int s.Codar.Stats.cf_recomputes);
      ("cf_cache_hits", Json.Int s.Codar.Stats.cf_cache_hits);
      ("cf_hit_rate", Json.Float (Codar.Stats.cf_hit_rate s));
      ("pair_resolutions", Json.Int s.Codar.Stats.pair_resolutions);
      ("heuristic_evals", Json.Int s.Codar.Stats.heuristic_evals);
      ("swap_rescores", Json.Int s.Codar.Stats.swap_rescores);
      ("swap_candidates", Json.Int s.Codar.Stats.swap_candidates);
      ("swaps_inserted", Json.Int s.Codar.Stats.swaps_inserted);
      ("forced_swaps", Json.Int s.Codar.Stats.forced_swaps);
      ("gates_issued", Json.Int s.Codar.Stats.gates_issued);
      ("cycles", Json.Int s.Codar.Stats.cycles);
    ]

let portfolio_to_json (p : portfolio) =
  Json.Obj
    [
      ("restarts", Json.Int p.restarts);
      ("winner", Json.Int p.winner);
      ("scores", Json.List (Array.to_list (Array.map (fun s -> Json.Int s) p.scores)));
      ("metric", Json.String p.metric);
      ( "metric_scores",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.Float s) p.metric_scores))
      );
      ( "objectives",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.String s) p.objectives)) );
    ]

(* Decoders are written against the exact shapes the emitters above produce;
   anything else is a malformed persistence file and yields [Error]. *)

let ( let* ) = Result.bind

let field j name decode =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match decode v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

(* Absent means "written before the counter existed": decode as 0 so
   persisted cache entries and old bench snapshots keep loading. *)
let optional_int_field j name ~default =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
    match Json.to_int_opt v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let stats_of_json j =
  let* cf_recomputes = field j "cf_recomputes" Json.to_int_opt in
  let* cf_cache_hits = field j "cf_cache_hits" Json.to_int_opt in
  let* pair_resolutions = field j "pair_resolutions" Json.to_int_opt in
  let* heuristic_evals = field j "heuristic_evals" Json.to_int_opt in
  let* swap_rescores = optional_int_field j "swap_rescores" ~default:0 in
  let* swap_candidates = field j "swap_candidates" Json.to_int_opt in
  let* swaps_inserted = field j "swaps_inserted" Json.to_int_opt in
  let* forced_swaps = field j "forced_swaps" Json.to_int_opt in
  let* gates_issued = field j "gates_issued" Json.to_int_opt in
  let* cycles = field j "cycles" Json.to_int_opt in
  (* cf_hit_rate is derived and recomputed on demand, not stored *)
  Ok
    {
      Codar.Stats.cf_recomputes;
      cf_cache_hits;
      pair_resolutions;
      heuristic_evals;
      swap_rescores;
      swap_candidates;
      swaps_inserted;
      forced_swaps;
      gates_issued;
      cycles;
    }

(* Absent means "written before the field existed" (pre-PR 8 snapshots):
   decode with the makespan-era defaults so old persistence files load. *)
let optional_string_field j name ~default =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
    match Json.to_string_opt v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let portfolio_of_json j =
  let* restarts = field j "restarts" Json.to_int_opt in
  let* winner = field j "winner" Json.to_int_opt in
  let* scores = field j "scores" Json.to_list_opt in
  let* scores =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        match Json.to_int_opt s with
        | Some i -> Ok (i :: acc)
        | None -> Error "portfolio score is not an integer")
      (Ok []) scores
  in
  let scores = Array.of_list (List.rev scores) in
  let* metric = optional_string_field j "metric" ~default:"makespan" in
  let* metric_scores =
    match Json.member "metric_scores" j with
    | None -> Ok (Array.map float_of_int scores)
    | Some v -> (
      match Json.to_list_opt v with
      | None -> Error "field \"metric_scores\" has the wrong type"
      | Some l ->
        let* l =
          List.fold_left
            (fun acc s ->
              let* acc = acc in
              match Json.to_float_opt s with
              | Some f -> Ok (f :: acc)
              | None -> Error "portfolio metric score is not a number")
            (Ok []) l
        in
        Ok (Array.of_list (List.rev l)))
  in
  let* objectives =
    match Json.member "objectives" j with
    | None -> Ok [||]
    | Some v -> (
      match Json.to_list_opt v with
      | None -> Error "field \"objectives\" has the wrong type"
      | Some l ->
        let* l =
          List.fold_left
            (fun acc s ->
              let* acc = acc in
              match Json.to_string_opt s with
              | Some x -> Ok (x :: acc)
              | None -> Error "portfolio objective is not a string")
            (Ok []) l
        in
        Ok (Array.of_list (List.rev l)))
  in
  Ok { restarts; winner; scores; metric; metric_scores; objectives }

let of_json j =
  let* source = field j "source" Json.to_string_opt in
  let* arch = field j "arch" Json.to_string_opt in
  let* n_physical = field j "n_physical" Json.to_int_opt in
  let* durations = field j "durations" Json.to_string_opt in
  let* router = field j "router" Json.to_string_opt in
  let* placement = field j "placement" Json.to_string_opt in
  let* objective = optional_string_field j "objective" ~default:"makespan" in
  let* n_qubits = field j "n_qubits" Json.to_int_opt in
  let* gates = field j "gates" Json.to_int_opt in
  let* unrouted_weighted_depth =
    field j "unrouted_weighted_depth" Json.to_int_opt
  in
  let* weighted_depth = field j "weighted_depth" Json.to_int_opt in
  let* raw_depth = field j "raw_depth" Json.to_int_opt in
  let* events = field j "events" Json.to_int_opt in
  let* swaps = field j "swaps" Json.to_int_opt in
  let* esp =
    match Json.member "esp" j with
    | None -> Ok None
    | Some v -> (
      match Json.to_float_opt v with
      | Some f -> Ok (Some f)
      | None -> Error "field \"esp\" has the wrong type")
  in
  let* wall_s = field j "wall_s" Json.to_float_opt in
  let* stats =
    match Json.member "router_stats" j with
    | None -> Ok None
    | Some sj ->
      let* s = stats_of_json sj in
      Ok (Some s)
  in
  let* portfolio =
    match Json.member "portfolio" j with
    | None -> Ok None
    | Some pj ->
      let* p = portfolio_of_json pj in
      Ok (Some p)
  in
  Ok
    {
      source;
      arch;
      n_physical;
      durations;
      router;
      placement;
      objective;
      n_qubits;
      gates;
      unrouted_weighted_depth;
      weighted_depth;
      raw_depth;
      events;
      swaps;
      esp;
      wall_s;
      stats;
      portfolio;
    }

let to_json t =
  Json.Obj
    ([
       ("source", Json.String t.source);
       ("arch", Json.String t.arch);
       ("n_physical", Json.Int t.n_physical);
       ("durations", Json.String t.durations);
       ("router", Json.String t.router);
       ("placement", Json.String t.placement);
       ("objective", Json.String t.objective);
       ("n_qubits", Json.Int t.n_qubits);
       ("gates", Json.Int t.gates);
       ("unrouted_weighted_depth", Json.Int t.unrouted_weighted_depth);
       ("weighted_depth", Json.Int t.weighted_depth);
       ("raw_depth", Json.Int t.raw_depth);
       ("events", Json.Int t.events);
       ("swaps", Json.Int t.swaps);
     ]
    @ (match t.esp with
      | Some e -> [ ("esp", Json.Float e) ]
      | None -> [])
    @ [ ("wall_s", Json.Float t.wall_s) ]
    @ (match t.stats with
      | Some s -> [ ("router_stats", stats_to_json s) ]
      | None -> [])
    @
    match t.portfolio with
    | Some p -> [ ("portfolio", portfolio_to_json p) ]
    | None -> [])
