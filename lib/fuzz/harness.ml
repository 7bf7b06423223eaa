type config = {
  cases : int;
  seed : int;
  max_qubits : int;
  devices : (string * Arch.Coupling.t) list;
  durations : string;
  sim_max_qubits : int;
  shrink_budget : int;
  corpus_dir : string option;
  faults : int option;
  objectives : bool;
  min_gates : int option;
}

let default_devices =
  [
    ("q5", Arch.Devices.ibm_q5);
    ("grid-2x3", Arch.Devices.grid ~rows:2 ~cols:3);
    ("ring-8", Arch.Devices.ring 8);
  ]

let default_config =
  {
    cases = 200;
    seed = 7;
    max_qubits = 5;
    devices = default_devices;
    durations = "superconducting";
    sim_max_qubits = 10;
    shrink_budget = 300;
    corpus_dir = None;
    faults = None;
    objectives = false;
    min_gates = None;
  }

type case_failure = {
  index : int;
  case_seed : int;
  device : string;
  oracles : string list;
  detail : string;
  shrunk : Qc.Circuit.t;
  corpus_path : string option;
}

type result = {
  config : config;
  ran : int;
  failed : case_failure list;
  checks : int;
  sim_checked : int;
}


let resolve_durations name =
  match Corpus.durations_of_name name with
  | Some d -> d
  | None -> invalid_arg (Fmt.str "Fuzz.Harness: unknown durations %S" name)

let oracle_names failures =
  List.sort_uniq String.compare
    (List.map (fun (f : Oracle.failure) -> f.oracle) failures)

(* Shrink against "the same set of oracle names still fails": stricter
   predicates (same detail string) are brittle because messages embed
   qubit numbers that legitimately change while shrinking. *)
let shrink_failure ~budget ~maqam ~sim_max_qubits ~oracles circuit =
  let still_fails c =
    let report = Oracle.check ~sim_max_qubits ~maqam c in
    let now = oracle_names report.Oracle.failures in
    List.for_all (fun o -> List.mem o now) oracles
  in
  Shrink.shrink ~max_checks:budget ~still_fails circuit

(* ------------------------------------------- fault-persistence oracle *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* With [--faults fseed], every case additionally exercises the crash-safe
   cache-persistence path under a per-case injection plan: route the case
   circuit, cache the record, snapshot it cleanly, then save again with
   disk-full and silent-corruption faults armed. The invariants checked
   are exactly docs/ROBUSTNESS.md's: a failed save leaves the previous
   snapshot byte-intact; a successful save either reloads the record
   byte-identically or is detected as corrupt (typed cold start). Any
   other outcome is a case failure named ["fault-persistence"]. *)
let fault_persistence_check ~fseed ~index ~maqam ~case_seed circuit =
  let n_logical = Qc.Circuit.n_qubits circuit in
  let n_physical = Arch.Maqam.n_qubits maqam in
  let initial = Arch.Layout.identity ~n_logical ~n_physical in
  match Codar.Remapper.run ~maqam ~initial circuit with
  | exception _ -> None (* routing trouble is the other oracles' business *)
  | routed -> (
    (* wall_s pinned so the record bytes are a pure function of the case *)
    let record =
      Report.Record.make ~source:"fuzz" ~router:"codar" ~placement:"identity"
        ~wall_s:0. ~maqam ~original:circuit routed
    in
    let fp =
      Cache.Fingerprint.compute ~circuit ~maqam ~router:"codar"
        ~placement:"identity" ~restarts:1 ~seed:case_seed ()
    in
    let cache = Cache.create ~max_entries:4 () in
    Cache.add cache fp record;
    let path = Filename.temp_file "codar-fuzz-cache" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Cache.save cache path;
        let old_snapshot = read_file path in
        let plan =
          Faults.plan
            ~seed:(Faults.mix ~seed:fseed ~index)
            [
              (Faults.Cache_save_disk_full, 0.25);
              (Faults.Cache_save_corrupt, 0.25);
            ]
        in
        let saved =
          Faults.with_plan plan (fun () ->
              match Cache.save cache path with
              | () -> Ok ()
              | exception Sys_error msg -> Error msg)
        in
        match saved with
        | Error _ ->
          if String.equal (read_file path) old_snapshot then None
          else Some "failed save damaged the existing snapshot"
        | Ok () -> (
          match Cache.load ~max_entries:4 path with
          | Error (Cache.Corrupt _) -> None (* injected, detected: cold start *)
          | Error e ->
            Some ("unexpected load error: " ^ Cache.load_error_to_string e)
          | Ok loaded -> (
            match Cache.find loaded fp with
            | None -> Some "entry missing after reload"
            | Some got ->
              let ser r = Report.Json.to_string (Report.Record.to_json r) in
              if String.equal (ser got) (ser record) then None
              else Some "reloaded record is not byte-identical"))))

let run_case cfg ~durations ~index =
  let n_devices = List.length cfg.devices in
  let device_name, coupling = List.nth cfg.devices (index mod n_devices) in
  let maqam = Arch.Maqam.make ~coupling ~durations in
  let width = Arch.Maqam.n_qubits maqam in
  let case_seed = Gen.case_seed ~run_seed:cfg.seed ~index in
  let rng = Random.State.make [| case_seed |] in
  let gen_cfg = Gen.sample_config rng ~max_qubits:(min cfg.max_qubits width) in
  (* --min-gates: stretch every sampled case to at least [g] body gates,
     the large-scale-tier knob (width stays as sampled, so small shapes
     still rotate through; only the gate count is floored) *)
  let gen_cfg =
    match cfg.min_gates with
    | None -> gen_cfg
    | Some g -> { gen_cfg with Gen.gates = max gen_cfg.Gen.gates g }
  in
  let circuit = Gen.circuit_rng rng gen_cfg in
  (* The layered A* baseline explodes on large-tier cases (its per-layer
     expansion bound is paid thousands of times on a 10k-gate circuit),
     so big cases run the other three routers — the codar-vs-reference
     differential, the core oracle, is unaffected. A*'s behavior is
     covered by every small-tier case. *)
  let routers =
    if Qc.Circuit.length circuit * width >= 200_000 then
      [ Oracle.Codar; Oracle.Sabre; Oracle.Reference ]
    else Oracle.all_routers
  in
  let report =
    Oracle.check ~sim_max_qubits:cfg.sim_max_qubits ~routers ~maqam circuit
  in
  (* with --objectives, every case additionally routes under t2, the one
     non-makespan objective, and must still clear verify + sim-equiv (the
     makespan objective is already covered by the Codar router pass; t2
     routes differently only under a profile where its threshold is 1) *)
  let objective_failure, objective_checks =
    if not cfg.objectives then (None, 0)
    else begin
      let failures, checks =
        Oracle.check_objective ~sim_max_qubits:cfg.sim_max_qubits ~maqam
          ~objective:Objective.t2 circuit
      in
      match failures with
      | [] -> (None, checks)
      | f :: _ ->
        ( Some
            (* not shrunk: Oracle.check does not include this property, so
               Shrink's still-fails predicate cannot drive it *)
            {
              index;
              case_seed;
              device = device_name;
              oracles = oracle_names failures;
              detail = Fmt.str "%a" Oracle.pp_failure f;
              shrunk = circuit;
              corpus_path = None;
            },
          checks )
    end
  in
  let fault_failure =
    match cfg.faults with
    | None -> None
    | Some fseed ->
      Option.map
        (fun detail ->
          (* not shrunk: Oracle.check does not include this property, so
             Shrink's still-fails predicate cannot drive it *)
          {
            index;
            case_seed;
            device = device_name;
            oracles = [ "fault-persistence" ];
            detail;
            shrunk = circuit;
            corpus_path = None;
          })
        (fault_persistence_check ~fseed ~index ~maqam ~case_seed circuit)
  in
  let failure =
    if Oracle.passed report then None
    else begin
      let oracles = oracle_names report.failures in
      let shrunk =
        shrink_failure ~budget:cfg.shrink_budget ~maqam
          ~sim_max_qubits:cfg.sim_max_qubits ~oracles circuit
      in
      let detail =
        match report.failures with
        | f :: _ -> Fmt.str "%a" Oracle.pp_failure f
        | [] -> ""
      in
      let corpus_path =
        Option.map
          (fun dir ->
            Corpus.write ~dir
              {
                Corpus.device = device_name;
                durations = cfg.durations;
                seed = case_seed;
                oracle = String.concat "+" oracles;
                note = detail;
                circuit = shrunk;
              })
          cfg.corpus_dir
      in
      Some
        {
          index;
          case_seed;
          device = device_name;
          oracles;
          detail;
          shrunk;
          corpus_path;
        }
    end
  in
  ( report,
    objective_checks,
    match (failure, objective_failure) with
    | (Some _ as f), _ -> f
    | None, (Some _ as f) -> f
    | None, None -> fault_failure )

let run ?(progress = fun _ -> ()) cfg =
  if cfg.devices = [] then invalid_arg "Fuzz.Harness: empty device list";
  if cfg.cases < 0 then invalid_arg "Fuzz.Harness: negative case count";
  let durations = resolve_durations cfg.durations in
  let failed = ref [] in
  let checks = ref 0 in
  let sim_checked = ref 0 in
  for index = 0 to cfg.cases - 1 do
    let report, objective_checks, failure = run_case cfg ~durations ~index in
    checks := !checks + report.Oracle.checks + objective_checks;
    if cfg.faults <> None then incr checks;
    if report.sim_checked then incr sim_checked;
    Option.iter (fun f -> failed := f :: !failed) failure;
    progress index
  done;
  {
    config = cfg;
    ran = cfg.cases;
    failed = List.rev !failed;
    checks = !checks;
    sim_checked = !sim_checked;
  }

let replay ~sim_max_qubits (entry : Corpus.entry) =
  let coupling =
    match Arch.Devices.by_name entry.device with
    | Some c -> c
    | None ->
      invalid_arg (Fmt.str "Fuzz.Harness: unknown device %S" entry.device)
  in
  let durations = resolve_durations entry.durations in
  let maqam = Arch.Maqam.make ~coupling ~durations in
  Oracle.check ~sim_max_qubits ~maqam entry.circuit

let summary_json (r : result) =
  let open Report.Json in
  let failure_json (f : case_failure) =
    Obj
      [
        ("index", Int f.index);
        ("case_seed", Int f.case_seed);
        ("device", String f.device);
        ("oracles", List (List.map (fun o -> String o) f.oracles));
        ("detail", String f.detail);
        ("shrunk_qasm", String (Qasm.Printer.to_string f.shrunk));
        ( "corpus_path",
          match f.corpus_path with Some p -> String p | None -> Null );
      ]
  in
  Obj
    [
      ("schema", String "codar-fuzz-summary/1");
      ( "config",
        Obj
          [
            ("cases", Int r.config.cases);
            ("seed", Int r.config.seed);
            ("max_qubits", Int r.config.max_qubits);
            ( "devices",
              List (List.map (fun (n, _) -> String n) r.config.devices) );
            ("durations", String r.config.durations);
            ("sim_max_qubits", Int r.config.sim_max_qubits);
            ("shrink_budget", Int r.config.shrink_budget);
            ( "faults",
              match r.config.faults with Some s -> Int s | None -> Null );
            ("objectives", Bool r.config.objectives);
            ( "min_gates",
              match r.config.min_gates with Some g -> Int g | None -> Null );
          ] );
      ("ran", Int r.ran);
      ("passed", Int (r.ran - List.length r.failed));
      ("failed", Int (List.length r.failed));
      ("checks", Int r.checks);
      ("sim_checked", Int r.sim_checked);
      ("failures", List (List.map failure_json r.failed));
    ]
