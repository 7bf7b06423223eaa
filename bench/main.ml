(* Experiment harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- device/duration survey (Table I)
     dune exec bench/main.exe fig8       -- speedup vs SABRE, 4 architectures
     dune exec bench/main.exe fig9       -- fidelity maintenance
     dune exec bench/main.exe ablation   -- design-choice ablations
     dune exec bench/main.exe perf       -- Bechamel router micro-benchmarks
     dune exec bench/main.exe fig8-fast  -- fig8 on a subset (CI-friendly)

   The routing sweeps (fig8, fig9, ablation) are independent-job fan-outs;
   `--jobs N` (or `-j N`, anywhere on the command line) routes them over a
   deterministic N-domain pool — output is byte-identical for every N
   (docs/PARALLEL.md). `--jobs 0` means all cores. `perf --json PATH`
   additionally writes the micro-benchmark estimates as JSON (the committed
   BENCH_PR2.json snapshot is such a file). *)

let superconducting = Arch.Durations.superconducting

(* ---------------------------------------------------------------- Table I *)

let table1 () =
  Fmt.pr "@.== Table I: duration profiles (cycles) encoded from the survey ==@.";
  Fmt.pr "%-16s %6s %6s %6s %9s@." "technology" "1q" "2q" "swap" "measure";
  List.iter
    (fun d ->
      Fmt.pr "%-16s %6d %6d %6d %9d@." (Arch.Durations.name d)
        (Arch.Durations.one_qubit d) (Arch.Durations.two_qubit d)
        (Arch.Durations.swap d) (Arch.Durations.measure d))
    Arch.Durations.all_presets;
  Fmt.pr "@.== Device zoo (coupling graphs of §V-b) ==@.";
  Fmt.pr "%-22s %7s %7s %9s %7s@." "device" "qubits" "edges" "diameter"
    "coords";
  List.iter
    (fun c ->
      Fmt.pr "%-22s %7d %7d %9d %7b@." (Arch.Coupling.name c)
        (Arch.Coupling.n_qubits c)
        (List.length (Arch.Coupling.edges c))
        (Arch.Coupling.diameter c)
        (Arch.Coupling.coords c <> None))
    (Arch.Devices.evaluation_devices @ [ Arch.Devices.ibm_q5 ])

(* ----------------------------------------------------------------- Fig. 8 *)

let geometric_mean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
         /. float_of_int (List.length xs))

let arithmetic_mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let route_pair maqam circuit =
  let initial = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
  let codar = Codar.Remapper.run ~maqam ~initial circuit in
  let sabre = Sabre.Router.run ~maqam ~initial circuit in
  (codar, sabre)

let paper_fig8 =
  [
    ("ibm-q16-melbourne", 1.212);
    ("enfield-6x6", 1.241);
    ("ibm-q20-tokyo", 1.214);
    ("google-q54-sycamore", 1.258);
  ]

let fig8_entries device =
  (* the paper runs the three 36-qubit programs only on Google Q54 *)
  if Arch.Coupling.n_qubits device >= 54 then Workloads.Suite.all
  else Workloads.Suite.fitting ~max_qubits:16

let fig8 ?(fast = false) ~pool () =
  Fmt.pr "@.== Fig. 8: speedup ratio (SABRE weighted depth / CODAR weighted \
          depth) ==@.";
  let summary = ref [] in
  List.iter
    (fun device ->
      let maqam = Arch.Maqam.make ~coupling:device ~durations:superconducting in
      let entries = fig8_entries device in
      let entries =
        if fast then
          List.filter
            (fun (e : Workloads.Suite.entry) ->
              e.n_qubits <= 10 && e.name <> "rand_16_30k")
            entries
        else entries
      in
      Fmt.pr "@.-- %s (%d benchmarks) --@." (Arch.Coupling.name device)
        (List.length entries);
      Fmt.pr "%-16s %4s %7s %9s %9s %8s@." "benchmark" "n" "gates" "codar"
        "sabre" "speedup";
      (* force lazies before the fan-out — Lazy.force is not domain-safe —
         then route every (benchmark, device) job on the pool and print in
         suite order *)
      let tasks =
        Array.of_list
          (List.map
             (fun (e : Workloads.Suite.entry) -> (e, Lazy.force e.circuit))
             entries)
      in
      let rows =
        Pool.map pool
          (fun _ ((e : Workloads.Suite.entry), c) ->
            let codar, sabre = route_pair maqam c in
            ( e.name,
              e.n_qubits,
              Qc.Circuit.length c,
              codar.Schedule.Routed.makespan,
              sabre.Schedule.Routed.makespan ))
          tasks
      in
      let speedups =
        Array.to_list
          (Array.map
             (fun (name, n, gates, codar, sabre) ->
               let sp = float_of_int sabre /. float_of_int codar in
               Fmt.pr "%-16s %4d %7d %9d %9d %8.3f@." name n gates codar
                 sabre sp;
               sp)
             rows)
      in
      let avg = arithmetic_mean speedups in
      let gm = geometric_mean speedups in
      Fmt.pr "average speedup: %.3f (geometric %.3f)@." avg gm;
      summary := (Arch.Coupling.name device, avg) :: !summary)
    Arch.Devices.evaluation_devices;
  Fmt.pr "@.-- Fig. 8 summary (paper vs measured average speedup) --@.";
  Fmt.pr "%-22s %8s %9s@." "architecture" "paper" "measured";
  List.iter
    (fun (name, paper) ->
      let measured = List.assoc_opt name !summary in
      Fmt.pr "%-22s %8.3f %9s@." name paper
        (match measured with Some m -> Fmt.str "%.3f" m | None -> "-"))
    paper_fig8

(* ----------------------------------------------------------------- Fig. 9 *)

let fig9 ~pool () =
  Fmt.pr "@.== Fig. 9: fidelity of 7 algorithms under scheduled noise ==@.";
  let device = Arch.Devices.grid ~rows:3 ~cols:3 in
  let maqam = Arch.Maqam.make ~coupling:device ~durations:superconducting in
  let models =
    [
      ("dephasing-dominant", Sim.Noise.dephasing_dominant ~t2:300.);
      ("damping-dominant", Sim.Noise.damping_dominant ~t1:300.);
    ]
  in
  (* one job per (model, algorithm): route both ways and run the 30
     noisy trajectories — the dominant cost — off the main domain *)
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (mname, model) ->
           List.map
             (fun (a : Workloads.Algorithms.named) -> (mname, model, a))
             Workloads.Algorithms.all)
         models)
  in
  let rows =
    Pool.map pool
      (fun _ (mname, model, (a : Workloads.Algorithms.named)) ->
        let codar, sabre = route_pair maqam a.circuit in
        let f r =
          Sim.Noise.fidelity ~trajectories:30 model ~maqam
            ~original:a.circuit r
        in
        ( mname,
          a.name,
          codar.Schedule.Routed.makespan,
          sabre.Schedule.Routed.makespan,
          f codar,
          f sabre ))
      tasks
  in
  List.iter
    (fun (mname, _) ->
      Fmt.pr "@.-- %s (T1=∞ or T2-limited, 3x3 grid, 30 trajectories) --@."
        mname;
      Fmt.pr "%-10s %9s %9s %10s %10s@." "algorithm" "codar" "sabre"
        "f(codar)" "f(sabre)";
      Array.iter
        (fun (m, name, mc, ms, fc, fs) ->
          if String.equal m mname then
            Fmt.pr "%-10s %9d %9d %10.4f %10.4f@." name mc ms fc fs)
        rows)
    models

(* --------------------------------------------------------------- Ablation *)

let ablation ~pool () =
  Fmt.pr "@.== Ablation: CODAR design knobs (IBM Q20 Tokyo) ==@.";
  let maqam =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
      ~durations:superconducting
  in
  let subset =
    [ "qft_8"; "qft_12"; "qft_16"; "oracle_8"; "oracle_12"; "tof_8";
      "adder_10"; "qaoa_12"; "dj_10"; "wstate_12" ]
  in
  let circuits =
    List.filter_map
      (fun n -> Option.map (fun (e : Workloads.Suite.entry) ->
           (n, Lazy.force e.circuit)) (Workloads.Suite.find n))
      subset
  in
  let variants =
    [
      ("default (window=200)", Codar.Remapper.default_config);
      ("window=10", { Codar.Remapper.default_config with window = 10 });
      ("window=50", { Codar.Remapper.default_config with window = 50 });
      ("no commutativity",
       { Codar.Remapper.default_config with use_commutativity = false });
      ("no Hfine", { Codar.Remapper.default_config with use_fine = false });
    ]
  in
  (* (variant × circuit) and (duration-profile × circuit) jobs all fan out
     together; results are averaged per row afterwards, in row order *)
  let speedup_of ~config maqam c =
    let initial = Sabre.Initial_mapping.reverse_traversal ~maqam c in
    let codar = Codar.Remapper.run ?config ~maqam ~initial c in
    let sabre = Sabre.Router.run ~maqam ~initial c in
    float_of_int sabre.Schedule.Routed.makespan
    /. float_of_int codar.Schedule.Routed.makespan
  in
  let variant_rows =
    List.map (fun (vname, config) -> (vname, Some config, maqam)) variants
  in
  let profile_rows =
    List.map
      (fun durations ->
        ( Arch.Durations.name durations,
          None,
          Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations ))
      Arch.Durations.all_presets
  in
  let rows = variant_rows @ profile_rows in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (_, config, maqam) ->
           List.map (fun (_, c) -> (config, maqam, c)) circuits)
         rows)
  in
  let speedups =
    Pool.map pool (fun _ (config, maqam, c) -> speedup_of ~config maqam c) tasks
  in
  let per_row = List.length circuits in
  let avg_of_row i =
    arithmetic_mean
      (Array.to_list (Array.sub speedups (i * per_row) per_row))
  in
  Fmt.pr "%-22s %s@." "variant" "avg speedup vs SABRE";
  List.iteri
    (fun i (vname, _, _) ->
      if i = List.length variants then
        Fmt.pr
          "@.-- duration profile sensitivity (same subset, default CODAR) \
           --@.";
      Fmt.pr "%-22s %.3f@." vname (avg_of_row i))
    rows

(* ------------------------------------------------ Initial-mapping study *)

let initmap () =
  Fmt.pr "@.== Initial-mapping strategies (CODAR, IBM Q20 Tokyo) ==@.";
  Fmt.pr "   (the paper uses SABRE's reverse traversal for both routers; this\n\
          \    quantifies how much that choice matters)@.";
  let maqam =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
      ~durations:superconducting
  in
  let subset =
    [ "qft_8"; "qft_12"; "oracle_10"; "adder_10"; "qaoa_12"; "dj_10";
      "wstate_12"; "tof_8" ]
  in
  let circuits =
    List.filter_map
      (fun n ->
        Option.map
          (fun (e : Workloads.Suite.entry) -> (n, Lazy.force e.circuit))
          (Workloads.Suite.find n))
      subset
  in
  Fmt.pr "%-14s %s@." "strategy" "avg makespan (lower is better)";
  List.iter
    (fun strategy ->
      let total =
        List.fold_left
          (fun acc (_, c) ->
            let initial = Placement.compute strategy ~maqam c in
            acc
            + (Codar.Remapper.run ~maqam ~initial c).Schedule.Routed.makespan)
          0 circuits
      in
      Fmt.pr "%-14s %.1f@." (Placement.name strategy)
        (float_of_int total /. float_of_int (List.length circuits)))
    Placement.all

(* -------------------------------------------------- SWAP-overhead study *)

let swaps () =
  Fmt.pr "@.== SWAP overhead: CODAR trades SWAP count for parallelism \
          (§V-B) ==@.";
  Fmt.pr "%-22s %14s %14s %13s %13s@." "architecture" "codar swaps"
    "sabre swaps" "codar par." "sabre par.";
  List.iter
    (fun device ->
      let maqam = Arch.Maqam.make ~coupling:device ~durations:superconducting in
      let n_physical = Arch.Coupling.n_qubits device in
      let entries =
        List.filter
          (fun (e : Workloads.Suite.entry) ->
            e.n_qubits <= 12 && e.n_qubits >= 6)
          (fig8_entries device)
      in
      let totals =
        List.fold_left
          (fun (cs, ss, cp, sp, k) (e : Workloads.Suite.entry) ->
            let c = Lazy.force e.circuit in
            let codar, sabre = route_pair maqam c in
            let stat r = Schedule.Stats.of_routed ~n_physical ~original:c r in
            ( cs + Schedule.Routed.swap_count codar,
              ss + Schedule.Routed.swap_count sabre,
              cp +. (stat codar).Schedule.Stats.parallelism,
              sp +. (stat sabre).Schedule.Stats.parallelism,
              k + 1 ))
          (0, 0, 0., 0., 0) entries
      in
      let cs, ss, cp, sp, k = totals in
      let fk = float_of_int k in
      Fmt.pr "%-22s %14d %14d %13.2f %13.2f@." (Arch.Coupling.name device) cs
        ss (cp /. fk) (sp /. fk))
    Arch.Devices.evaluation_devices

(* ------------------------------------------------------ Baseline routers *)

let baselines () =
  Fmt.pr "@.== Three-router comparison (weighted depth, IBM Q20 Tokyo) ==@.";
  Fmt.pr "   (CODAR vs SABRE vs a Zulehner-style layered A* mapper)@.";
  let maqam =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
      ~durations:superconducting
  in
  Fmt.pr "%-14s %9s %9s %9s@." "benchmark" "codar" "sabre" "astar";
  let totals = ref (0, 0, 0) in
  List.iter
    (fun name ->
      match Workloads.Suite.find name with
      | None -> ()
      | Some e ->
        let c = Lazy.force e.circuit in
        let initial = Sabre.Initial_mapping.reverse_traversal ~maqam c in
        let codar = Codar.Remapper.run ~maqam ~initial c in
        let sabre = Sabre.Router.run ~maqam ~initial c in
        let astar = Astar.Router.run ~maqam ~initial c in
        let mc, ms, ma =
          ( codar.Schedule.Routed.makespan,
            sabre.Schedule.Routed.makespan,
            astar.Schedule.Routed.makespan )
        in
        let tc, ts, ta = !totals in
        totals := (tc + mc, ts + ms, ta + ma);
        Fmt.pr "%-14s %9d %9d %9d@." name mc ms ma)
    [ "qft_8"; "qft_12"; "qft_16"; "oracle_10"; "adder_10"; "tof_8";
      "qaoa_12"; "dj_10"; "wstate_12"; "simon_10" ];
  let tc, ts, ta = !totals in
  Fmt.pr "%-14s %9d %9d %9d@." "total" tc ts ta

(* ----------------------------------------- Estimated success probability *)

let esp () =
  Fmt.pr "@.== Estimated success probability (analytic ESP; scales Fig. 9 \
          to the full suite) ==@.";
  let maqam =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
      ~durations:superconducting
  in
  let calibration = Arch.Calibration.superconducting in
  Fmt.pr "calibration: %a@." Arch.Calibration.pp calibration;
  Fmt.pr "%-14s %12s %12s %9s@." "benchmark" "esp(codar)" "esp(sabre)"
    "ratio";
  let wins = ref 0 and count = ref 0 in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      (* restrict to circuits where ESP stays meaningfully above zero *)
      if e.n_qubits <= 12 && e.name <> "rand_16_30k" then begin
        let c = Lazy.force e.circuit in
        if Qc.Circuit.length c <= 200 then begin
          let codar, sabre = route_pair maqam c in
          let esp r =
            Sim.Reliability.estimated_success ~calibration ~n_physical:20 r
          in
          let ec = esp codar and es = esp sabre in
          incr count;
          if ec >= es then incr wins;
          Fmt.pr "%-14s %12.4f %12.4f %9.3f@." e.name ec es (ec /. es)
        end
      end)
    Workloads.Suite.all;
  Fmt.pr "CODAR wins or ties on %d / %d@." !wins !count

(* ------------------------------------------------------- Objectives table *)

(* Cross-objective comparison: every routing objective on every
   (device, durations) cell of the evaluation set, one workload at a time.
   Reported per cell: makespan, raw depth, SWAP count and (for calibrated
   profiles) the analytic ESP — the table behind BENCH_PR8.json. *)
let objectives_table ?json () =
  Fmt.pr "@.== Cross-objective comparison (CODAR router) ==@.";
  let cells =
    [
      ("tokyo", Arch.Devices.ibm_q20_tokyo, superconducting);
      ("melbourne", Arch.Devices.ibm_q16_melbourne, superconducting);
      ("linear-16", Arch.Devices.linear 16, Arch.Durations.ion_trap);
      ( "grid-4x4",
        Arch.Devices.grid ~rows:4 ~cols:4,
        Arch.Durations.neutral_atom );
    ]
  in
  let workloads = [ "qft_8"; "ghz_8"; "qaoa_6" ] in
  let rows = ref [] in
  let t2_wins = ref 0 and t2_cells = ref 0 in
  List.iter
    (fun (device, coupling, durations) ->
      let maqam = Arch.Maqam.make ~coupling ~durations in
      let n_physical = Arch.Coupling.n_qubits coupling in
      let calibration = Arch.Calibration.for_durations durations in
      List.iter
        (fun wname ->
          let circuit =
            match Workloads.Suite.find wname with
            | Some e -> Lazy.force e.Workloads.Suite.circuit
            | None -> Fmt.failwith "objectives: benchmark %s missing" wname
          in
          let initial =
            Sabre.Initial_mapping.reverse_traversal ~maqam circuit
          in
          Fmt.pr "@.-- %s on %s [%s] --@." wname device
            (Arch.Durations.name durations);
          Fmt.pr "%-10s %9s %6s %6s %12s@." "objective" "makespan" "depth"
            "swaps" "esp";
          let esp_of = Hashtbl.create 4 in
          List.iter
            (fun objective ->
              let name = Objective.name objective in
              let routed =
                Codar.Remapper.run
                  ~config:{ Codar.Remapper.default_config with objective }
                  ~maqam ~initial circuit
              in
              (match
                 Schedule.Verify.check_all ~maqam ~original:circuit routed
               with
              | Ok () -> ()
              | Error e ->
                Fmt.failwith "objectives: %s/%s/%s verify failed: %a" wname
                  device name Schedule.Verify.pp_error e);
              let depth = Schedule.Routed.raw_depth ~n_physical routed in
              let swaps = Schedule.Routed.swap_count routed in
              let esp =
                Option.map
                  (fun calibration ->
                    Sim.Reliability.estimated_success ~calibration ~n_physical
                      routed)
                  calibration
              in
              Option.iter (Hashtbl.replace esp_of name) esp;
              (match esp with
              | Some e ->
                Fmt.pr "%-10s %9d %6d %6d %12.6f@." name
                  routed.Schedule.Routed.makespan depth swaps e
              | None ->
                Fmt.pr "%-10s %9d %6d %6d %12s@." name
                  routed.Schedule.Routed.makespan depth swaps "-");
              rows :=
                Report.Json.Obj
                  ([
                     ("workload", Report.Json.String wname);
                     ("device", Report.Json.String device);
                     ( "durations",
                       Report.Json.String (Arch.Durations.name durations) );
                     ("objective", Report.Json.String name);
                     ( "makespan",
                       Report.Json.Int routed.Schedule.Routed.makespan );
                     ("depth", Report.Json.Int depth);
                     ("swaps", Report.Json.Int swaps);
                   ]
                  @
                  match esp with
                  | Some e -> [ ("esp", Report.Json.Float e) ]
                  | None -> [])
                :: !rows)
            Objective.all;
          match
            ( Hashtbl.find_opt esp_of "t2",
              Hashtbl.find_opt esp_of "makespan" )
          with
          | Some t2, Some mk ->
            incr t2_cells;
            if t2 > mk then incr t2_wins
          | _ -> ())
        workloads)
    cells;
  Fmt.pr "@.t2 beats makespan on ESP in %d / %d calibrated cells@." !t2_wins
    !t2_cells;
  match json with
  | None -> ()
  | Some path ->
    let doc =
      Report.Json.Obj
        [
          ("schema", Report.Json.String "codar-bench-objectives/1");
          ("t2_esp_wins", Report.Json.Int !t2_wins);
          ("calibrated_cells", Report.Json.Int !t2_cells);
          ("rows", Report.Json.List (List.rev !rows));
        ]
    in
    let oc = open_out path in
    Report.Json.output oc doc;
    close_out oc;
    Fmt.pr "wrote %s@." path

(* ------------------------------------------------------------------- Perf *)

let perf ?json () =
  Fmt.pr "@.== Bechamel micro-benchmarks (one per experiment driver) ==@.";
  let open Bechamel in
  let tokyo =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
      ~durations:superconducting
  in
  let grid33 =
    Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:3 ~cols:3)
      ~durations:superconducting
  in
  let qft8 = Workloads.Builders.qft 8 in
  let qft5 = Workloads.Builders.qft 5 in
  let qft16 = Workloads.Builders.qft 16 in
  let rand12 =
    Workloads.Builders.random_circuit ~n:12 ~gates:2000
      ~two_qubit_fraction:0.5 ~seed:7
  in
  let initial8 = Sabre.Initial_mapping.reverse_traversal ~maqam:tokyo qft8 in
  let initial5 = Sabre.Initial_mapping.reverse_traversal ~maqam:grid33 qft5 in
  let initial16 = Sabre.Initial_mapping.reverse_traversal ~maqam:tokyo qft16 in
  let initial12 = Sabre.Initial_mapping.reverse_traversal ~maqam:tokyo rand12 in
  let routed5 = Codar.Remapper.run ~maqam:grid33 ~initial:initial5 qft5 in
  let gates = Qc.Circuit.gate_array (Workloads.Builders.qft 10) in
  let issued = Array.make (Array.length gates) false in
  let spec8 =
    {
      Service.Engine.source_name = "qft_8";
      circuit = qft8;
      maqam = tokyo;
      router = `Codar;
      placement = Placement.Reverse_traversal 1;
      objectives = [ Objective.makespan ];
      metric = Codar.Portfolio.Makespan;
      restarts = 2;
      seed = 0;
      collect_stats = false;
    }
  in
  let tests =
    [
      (* Fig. 8 inner loop: one CODAR routing pass *)
      Test.make ~name:"fig8/codar-route-qft8-tokyo"
        (Staged.stage (fun () ->
             ignore (Codar.Remapper.run ~maqam:tokyo ~initial:initial8 qft8)));
      (* Fig. 8 baseline: one SABRE routing pass *)
      Test.make ~name:"fig8/sabre-route-qft8-tokyo"
        (Staged.stage (fun () ->
             ignore (Sabre.Router.run ~maqam:tokyo ~initial:initial8 qft8)));
      (* medium circuits: the router hot path the incremental CF cache and
         pair-resolution caching target *)
      Test.make ~name:"fig8/codar-route-qft16-tokyo"
        (Staged.stage (fun () ->
             ignore (Codar.Remapper.run ~maqam:tokyo ~initial:initial16 qft16)));
      Test.make ~name:"fig8/codar-route-rand12-2k-tokyo"
        (Staged.stage (fun () ->
             ignore
               (Codar.Remapper.run ~maqam:tokyo ~initial:initial12 rand12)));
      (* Fig. 9 inner loop: one noisy trajectory *)
      Test.make ~name:"fig9/noisy-trajectory-qft5"
        (Staged.stage
           (let rng = Random.State.make [| 1 |] in
            let input =
              Sim.Statevector.embed (Sim.Statevector.init 5) ~n_physical:9
                ~place:(Arch.Layout.phys_of_log routed5.Schedule.Routed.initial)
            in
            fun () ->
              ignore
                (Sim.Noise.run_trajectory ~rng
                   (Sim.Noise.dephasing_dominant ~t2:300.)
                   ~n_physical:9 ~input routed5)));
      (* Table II machinery: commutative-front extraction *)
      Test.make ~name:"core/cf-front-qft10"
        (Staged.stage (fun () ->
             ignore
               (Codar.Cf_front.compute ~commutes:Qc.Commute.commutes ~gates
                  ~issued 0)));
      (* Table II machinery: distance matrix construction *)
      Test.make ~name:"core/coupling-sycamore"
        (Staged.stage (fun () ->
             ignore
               (Arch.Coupling.make ~name:"s" ~n:54
                  (Arch.Coupling.edges Arch.Devices.sycamore_54))));
      (* daemon economics: what a request costs cold (placement + route)
         versus as a cache hit (fingerprint + LRU lookup) — the ratio is
         the whole argument for running the compile service *)
      Test.make ~name:"service/cold-route-qft8-tokyo"
        (Staged.stage (fun () -> ignore (Service.Engine.route spec8)));
      Test.make ~name:"service/cache-hit-qft8-tokyo"
        (Staged.stage
           (let cache = Cache.create ~max_entries:16 () in
            let record, _ = Service.Engine.route spec8 in
            Cache.add cache (Service.Engine.fingerprint spec8) record;
            fun () ->
              match Cache.find cache (Service.Engine.fingerprint spec8) with
              | Some _ -> ()
              | None -> assert false));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
      in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            estimates := (name, est) :: !estimates;
            Fmt.pr "%-36s %12.0f ns/run@." name est
          | Some _ | None -> Fmt.pr "%-36s (no estimate)@." name)
        results)
    tests;
  Fmt.pr "@.-- router instrumentation (one qft16 pass on Tokyo) --@.";
  let stats = Codar.Stats.create () in
  ignore (Codar.Remapper.run ~stats ~maqam:tokyo ~initial:initial16 qft16);
  Fmt.pr "%a@." Codar.Stats.pp stats;
  match json with
  | None -> ()
  | Some path ->
    let doc =
      Report.Json.Obj
        [
          ("schema", Report.Json.String "codar-bench-perf/1");
          ("ocaml", Report.Json.String Sys.ocaml_version);
          ( "benchmarks",
            Report.Json.List
              (List.rev_map
                 (fun (name, ns) ->
                   Report.Json.Obj
                     [
                       ("name", Report.Json.String name);
                       ("ns_per_run", Report.Json.Float ns);
                     ])
                 !estimates) );
          ( "router_stats_qft16_tokyo",
            Report.Record.stats_to_json stats );
        ]
    in
    let oc = open_out path in
    Report.Json.output oc doc;
    close_out oc;
    Fmt.pr "wrote %s@." path

(* ------------------------------------------------------------------ smoke *)

(* One small end-to-end routing run plus the stats path, wired into [dune
   runtest] (the [bench-smoke] alias in bench/dune) so the perf harness and
   instrumentation cannot silently rot. Exits non-zero on any failure. *)
let smoke () =
  let maqam =
    Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
      ~durations:superconducting
  in
  let circuit =
    match Workloads.Suite.find "qft_6" with
    | Some e -> Lazy.force e.circuit
    | None -> Fmt.failwith "smoke: benchmark qft_6 missing"
  in
  let initial = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
  let stats = Codar.Stats.create () in
  let routed = Codar.Remapper.run ~stats ~maqam ~initial circuit in
  (match Schedule.Verify.check_all ~maqam ~original:circuit routed with
  | Ok () -> ()
  | Error e -> Fmt.failwith "smoke: verify failed: %a" Schedule.Verify.pp_error e);
  if stats.Codar.Stats.gates_issued <> Qc.Circuit.length circuit then
    Fmt.failwith "smoke: stats counted %d issued gates, expected %d"
      stats.Codar.Stats.gates_issued (Qc.Circuit.length circuit);
  if stats.Codar.Stats.cf_recomputes = 0 then
    Fmt.failwith "smoke: no CF recompute recorded";
  if stats.Codar.Stats.cf_cache_hits = 0 then
    Fmt.failwith "smoke: CF cache never hit — incremental front broken?";
  Fmt.pr "smoke: routed qft_6 on tokyo (makespan %d, %d swaps)@."
    routed.Schedule.Routed.makespan
    (Schedule.Routed.swap_count routed);
  Fmt.pr "smoke: %a@." Codar.Stats.pp stats;
  (* incremental-scoring regression fence: the seed router performed 2140
     full heuristic evaluations routing qft_16 on Tokyo (BENCH_PR3.json).
     The delta-maintained scorer only evaluates Hfine for ties in the top
     positive bucket; hold it to at least a 5x reduction so a revert to
     scan-everything scoring fails runtest, not just the perf harness. *)
  let circuit16 =
    match Workloads.Suite.find "qft_16" with
    | Some e -> Lazy.force e.circuit
    | None -> Fmt.failwith "smoke: benchmark qft_16 missing"
  in
  let initial16 = Sabre.Initial_mapping.reverse_traversal ~maqam circuit16 in
  let stats16 = Codar.Stats.create () in
  let routed16 = Codar.Remapper.run ~stats:stats16 ~maqam ~initial:initial16 circuit16 in
  (match Schedule.Verify.check_all ~maqam ~original:circuit16 routed16 with
  | Ok () -> ()
  | Error e ->
    Fmt.failwith "smoke: qft_16 verify failed: %a" Schedule.Verify.pp_error e);
  let eval_ceiling = 428 (* 2140 / 5 *) in
  if stats16.Codar.Stats.heuristic_evals > eval_ceiling then
    Fmt.failwith
      "smoke: qft_16/tokyo took %d full heuristic evals (ceiling %d; seed \
       did 2140) — incremental scoring regressed"
      stats16.Codar.Stats.heuristic_evals eval_ceiling;
  if stats16.Codar.Stats.swap_rescores = 0 then
    Fmt.failwith "smoke: no incremental rescore recorded — scorer bypassed?";
  Fmt.pr "smoke: qft_16 on tokyo: %d evals (ceiling %d), %d rescores@."
    stats16.Codar.Stats.heuristic_evals eval_ceiling
    stats16.Codar.Stats.swap_rescores;
  (* allocation fence: one cold route of the daemon's cold shape (12
     qubits, 400 gates with rz angles) on Tokyo, SABRE placement then
     CODAR, counted from an emptied minor heap. The count is
     deterministic; the ceiling is 1.5x the 35,170 words measured once the
     CF tracker and the SWAP cycle ran on flat arrays (190k before them,
     468k before the allocation-free scoring and commutation paths), so a
     revert to allocating hot paths fails runtest. Most of the count is
     the exact checks that fill parameter-free verdicts this process has
     not met yet; a second identical route allocates 14,467. *)
  let cold =
    Workloads.Builders.random_circuit ~n:12 ~gates:400
      ~two_qubit_fraction:0.45 ~seed:17
  in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let initial_cold = Sabre.Initial_mapping.reverse_traversal ~maqam cold in
  let routed_cold = Codar.Remapper.run ~maqam ~initial:initial_cold cold in
  let cold_words = Gc.minor_words () -. w0 in
  (match Schedule.Verify.check_all ~maqam ~original:cold routed_cold with
  | Ok () -> ()
  | Error e ->
    Fmt.failwith "smoke: cold route verify failed: %a" Schedule.Verify.pp_error
      e);
  let words_ceiling = 52_755. in
  if cold_words > words_ceiling then
    Fmt.failwith
      "smoke: cold 12q x 400 route on tokyo allocated %.0f minor words \
       (ceiling %.0f) — a hot path allocates again"
      cold_words words_ceiling;
  Fmt.pr "smoke: cold 12q x 400 on tokyo: %.0f minor words (ceiling %.0f)@."
    cold_words words_ceiling;
  (* CODAR-alone allocation fence: qft_16 on Tokyo from the identity
     layout, routing only, counted from an emptied minor heap. The count
     is deterministic; the ceiling is 1.5x the 21,402 words measured with
     the flat-array CF tracker and SWAP cycle (the list- and option-based
     ones allocated 228,682). *)
  let identity16 =
    Arch.Layout.identity
      ~n_logical:(Qc.Circuit.n_qubits circuit16)
      ~n_physical:(Arch.Maqam.n_qubits maqam)
  in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let (_ : Schedule.Routed.t) =
    Codar.Remapper.run ~maqam ~initial:identity16 circuit16
  in
  let codar_words = Gc.minor_words () -. w0 in
  let codar_ceiling = 32_103. in
  if codar_words > codar_ceiling then
    Fmt.failwith
      "smoke: CODAR alone on qft_16/tokyo allocated %.0f minor words \
       (ceiling %.0f) — the routing cycle allocates again"
      codar_words codar_ceiling;
  Fmt.pr "smoke: codar qft_16 on tokyo from identity: %.0f minor words \
          (ceiling %.0f)@."
    codar_words codar_ceiling;
  (* parallel path: the pool and the portfolio must agree with their
     sequential selves on every runtest *)
  let circuits =
    Array.of_list
      (List.filter_map
         (fun n ->
           Option.map
             (fun (e : Workloads.Suite.entry) -> Lazy.force e.circuit)
             (Workloads.Suite.find n))
         [ "qft_4"; "qft_6"; "ghz_8" ])
  in
  if Array.length circuits < 2 then Fmt.failwith "smoke: tiny suite missing";
  let route_one _ c =
    let initial = Sabre.Initial_mapping.reverse_traversal ~maqam c in
    (Codar.Remapper.run ~maqam ~initial c).Schedule.Routed.makespan
  in
  let seq = Array.map (fun c -> route_one 0 c) circuits in
  let par = Pool.with_pool ~jobs:2 (fun p -> Pool.map p route_one circuits) in
  if seq <> par then
    Fmt.failwith "smoke: pool(jobs=2) disagrees with sequential routing";
  let portfolio jobs =
    Pool.with_pool ~jobs (fun p ->
        let c = circuits.(0) in
        let initial = Sabre.Initial_mapping.reverse_traversal ~maqam c in
        Codar.Portfolio.run ~pool:p ~restarts:4 ~maqam ~initial c)
  in
  let p1 = portfolio 1 and p2 = portfolio 2 in
  if p1.Codar.Portfolio.winner <> p2.Codar.Portfolio.winner
     || p1.Codar.Portfolio.scores <> p2.Codar.Portfolio.scores
  then Fmt.failwith "smoke: portfolio not deterministic across job counts";
  Fmt.pr "smoke: pool jobs=2 deterministic; portfolio winner %d of %d \
          (makespan %d)@."
    p1.Codar.Portfolio.winner
    (Array.length p1.Codar.Portfolio.scores)
    p1.Codar.Portfolio.routed.Schedule.Routed.makespan

(* --------------------------------------------------------------- Loadgen *)

(* Sustained-load benchmark for the compile service (BENCH_PR7.json): for
   each io-model × concurrency cell, fork a daemon child, drive N
   persistent pipelined connections from one single-threaded select loop
   for a fixed wall-clock window, and report sustained RPS plus
   p50/p99/p999 reply latency. Streams mix warm requests (a fixed route
   line answered from cache) with ~1/16 cold ones (a unique ["seed"]
   per request forces a fresh computation). Every warm reply is
   byte-compared against a reference captured before the run — the
   replay guarantee must hold under load, and any mismatch fails the
   benchmark. Each daemon runs in its own forked process, so the 512-conn
   cells stay inside both processes' [FD_SETSIZE]. *)

let lg_warm_line = {|{"op":"route","bench":"qft_4","restarts":2}|}

let lg_cold_line k =
  Fmt.str {|{"op":"route","bench":"qft_4","restarts":2,"seed":%d}|} k

(* growable sample store: latencies arrive at six figures per second *)
type lg_samples = { mutable buf : float array; mutable len : int }

let lg_samples () = { buf = Array.make 4096 0.; len = 0 }

let lg_push s x =
  if s.len = Array.length s.buf then begin
    let b = Array.make (2 * s.len) 0. in
    Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

let lg_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float ((p *. float_of_int (n - 1)) +. 0.5) in
    sorted.(max 0 (min (n - 1) i))

type lg_conn = {
  lfd : Unix.file_descr;
  mutable out : string; (* serialized requests not yet written *)
  mutable opos : int;
  inflight : (float * bool) Queue.t; (* enqueue time, is_warm; FIFO *)
  ibuf : Buffer.t;
}

type lg_cell = {
  cell_io : Service.Config.io_model;
  cell_conns : int;
  rps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  replies : int; (* ok replies inside the measured window *)
  err_replies : int; (* error replies (e.g. overloaded) in the window *)
  cold_sent : int;
  warm_mismatches : int;
  srv_overloads : int;
  srv_wb_stalls : int;
  srv_coalesced : int;
}

let lg_drive ~conns:n ~duration ~warmup ~window ~reference sock =
  let conns =
    Array.init n (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        Unix.set_nonblock fd;
        {
          lfd = fd;
          out = "";
          opos = 0;
          inflight = Queue.create ();
          ibuf = Buffer.create 4096;
        })
  in
  let by_fd = Hashtbl.create (2 * n) in
  Array.iter (fun c -> Hashtbl.replace by_fd c.lfd c) conns;
  let t_start = Unix.gettimeofday () in
  let t_measure = t_start +. warmup in
  let t_end = t_measure +. duration in
  let t_abort = t_end +. 30. in
  let lat = lg_samples () in
  let sent = ref 0 in
  let cold_sent = ref 0 in
  let mismatches = ref 0 in
  let errors = ref 0 in
  let measured = ref 0 in
  let generating = ref true in
  let chunk = Bytes.create 65536 in
  let gen_one c now =
    incr sent;
    let cold = !sent mod 16 = 0 in
    if cold then incr cold_sent;
    let line = if cold then lg_cold_line !sent else lg_warm_line in
    Queue.add (now, not cold) c.inflight;
    c.out <-
      String.sub c.out c.opos (String.length c.out - c.opos) ^ line ^ "\n";
    c.opos <- 0
  in
  (* an ["overloaded"]/error reply cost the daemon almost nothing: count
     it apart so rps compares routed work, not shed load *)
  let on_reply c line now =
    let t0, warm = Queue.pop c.inflight in
    let ok =
      String.length line >= 10 && String.equal (String.sub line 0 10) {|{"ok":true|}
    in
    if now >= t_measure && now <= t_end then
      if ok then begin
        lg_push lat ((now -. t0) *. 1e6);
        incr measured
      end
      else incr errors;
    if warm && not (String.equal line reference) then incr mismatches
  in
  let drain_lines c now =
    let s = Buffer.contents c.ibuf in
    match String.rindex_opt s '\n' with
    | None -> ()
    | Some last ->
      Buffer.clear c.ibuf;
      Buffer.add_substring c.ibuf s (last + 1) (String.length s - last - 1);
      List.iter
        (fun l -> on_reply c l now)
        (String.split_on_char '\n' (String.sub s 0 last))
  in
  let inflight_left () =
    Array.exists (fun c -> not (Queue.is_empty c.inflight)) conns
  in
  let now = ref t_start in
  while !generating || inflight_left () do
    if !now > t_abort then
      failwith "loadgen: drain did not finish 30s past the window";
    if !generating && !now >= t_end then generating := false;
    if !generating then
      Array.iter
        (fun c ->
          while Queue.length c.inflight < window do
            gen_one c !now
          done)
        conns;
    let rd =
      Array.fold_left
        (fun acc c -> if Queue.is_empty c.inflight then acc else c.lfd :: acc)
        [] conns
    in
    let wr =
      Array.fold_left
        (fun acc c ->
          if c.opos < String.length c.out then c.lfd :: acc else acc)
        [] conns
    in
    match Unix.select rd wr [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      now := Unix.gettimeofday ()
    | readable, writable, _ ->
      now := Unix.gettimeofday ();
      List.iter
        (fun fd ->
          let c = Hashtbl.find by_fd fd in
          match
            Unix.write_substring c.lfd c.out c.opos
              (String.length c.out - c.opos)
          with
          | k -> c.opos <- c.opos + k
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ())
        writable;
      List.iter
        (fun fd ->
          let c = Hashtbl.find by_fd fd in
          match Unix.read c.lfd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "loadgen: daemon closed a connection under load"
          | k ->
            Buffer.add_subbytes c.ibuf chunk 0 k;
            drain_lines c !now
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ())
        readable
  done;
  Array.iter
    (fun c -> try Unix.close c.lfd with Unix.Unix_error _ -> ())
    conns;
  let sorted = Array.sub lat.buf 0 lat.len in
  Array.sort compare sorted;
  ( sorted,
    !measured,
    !cold_sent,
    !mismatches,
    !errors,
    float_of_int !measured /. (t_end -. t_measure) )

let lg_cell ~io_model ~conns ~duration ~warmup ~window ~trials =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "codar-loadgen-%d-%s-%d.sock" (Unix.getpid ())
         (Service.Config.io_model_to_string io_model)
         conns)
  in
  (* the daemon child: fresh process, own domains/threads, own fd table *)
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       ignore
         (Service.Server.run
            (* a deep queue so neither io model sheds colds as cheap
               ["overloaded"] errors: both must do identical route work *)
            (Service.Server.config ~jobs:(Pool.default_jobs ())
               ~cache_entries:1024 ~queue_capacity:1024 ~io_model
               ~socket_path:sock ()))
     with _ -> ());
    Unix._exit 0
  end;
  let rec wait_ready tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if tries = 0 then failwith "loadgen: daemon did not come up";
      Unix.sleepf 0.02;
      wait_ready (tries - 1)
  in
  wait_ready 500;
  (* warm the cache and capture the byte-identity reference *)
  let reference =
    Service.Client.with_connection sock (fun t ->
        ignore (Service.Client.request t lg_warm_line);
        Service.Client.request t lg_warm_line)
  in
  (* the box is small and shared with the driver: take the median-RPS
     trial of [trials] so one scheduler hiccup doesn't decide a cell *)
  let runs =
    List.init trials (fun _ ->
        lg_drive ~conns ~duration ~warmup ~window ~reference sock)
  in
  let sorted_runs =
    List.sort (fun (_, _, _, _, _, a) (_, _, _, _, _, b) -> compare a b) runs
  in
  let sorted, replies, cold_sent, _, err_replies, rps =
    List.nth sorted_runs (trials / 2)
  in
  (* byte-identity must hold in every trial, not just the median one *)
  let warm_mismatches =
    List.fold_left (fun acc (_, _, _, m, _, _) -> acc + m) 0 runs
  in
  let counter stats path =
    match Report.Json.parse stats with
    | Error e -> Fmt.failwith "loadgen: bad stats reply: %s" e
    | Ok j -> (
      let rec walk j = function
        | [] -> j
        | k :: rest -> (
          match Report.Json.member k j with
          | Some j -> walk j rest
          | None -> Fmt.failwith "loadgen: stats missing %s" k)
      in
      match walk j path with
      | Report.Json.Int n -> n
      | _ -> Fmt.failwith "loadgen: stats field not an int")
  in
  let srv_overloads, srv_wb_stalls, srv_coalesced =
    Service.Client.with_connection sock (fun t ->
        let stats = Service.Client.request t {|{"op":"stats"}|} in
        ( counter stats [ "service"; "overloads" ],
          counter stats [ "service"; "wb_stalls" ],
          counter stats [ "service"; "coalesced" ] ))
  in
  Service.Client.with_connection sock (fun t ->
      ignore (Service.Client.request t {|{"op":"shutdown"}|}));
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> failwith "loadgen: daemon child did not exit cleanly");
  {
    cell_io = io_model;
    cell_conns = conns;
    rps;
    p50_us = lg_percentile sorted 0.50;
    p99_us = lg_percentile sorted 0.99;
    p999_us = lg_percentile sorted 0.999;
    replies;
    err_replies;
    cold_sent;
    warm_mismatches;
    srv_overloads;
    srv_wb_stalls;
    srv_coalesced;
  }

let loadgen ?json ~conns_list ~duration ~trials () =
  Fmt.pr
    "@.== Sustained load: evented vs threaded (warm route + 1/16 cold, \
     %.1fs/cell) ==@."
    duration;
  let warmup = Float.min 1.0 (Float.max 0.1 (duration /. 5.)) in
  let window = 8 in
  Fmt.pr "%-9s %6s %10s %9s %9s %9s %9s %7s %6s@." "io-model" "conns" "rps"
    "p50(us)" "p99(us)" "p999(us)" "replies" "cold" "errs";
  let cells =
    List.concat_map
      (fun io_model ->
        List.map
          (fun conns ->
            let c =
              lg_cell ~io_model ~conns ~duration ~warmup ~window ~trials
            in
            Fmt.pr "%-9s %6d %10.0f %9.0f %9.0f %9.0f %9d %7d %6d@."
              (Service.Config.io_model_to_string c.cell_io)
              c.cell_conns c.rps c.p50_us c.p99_us c.p999_us c.replies
              c.cold_sent c.err_replies;
            if c.replies = 0 then failwith "loadgen: no replies measured";
            if c.warm_mismatches > 0 then
              Fmt.failwith
                "loadgen: %d warm replies were not byte-identical under load \
                 (%s, %d conns)"
                c.warm_mismatches
                (Service.Config.io_model_to_string c.cell_io)
                c.cell_conns;
            c)
          conns_list)
      [ Service.Config.Evented; Service.Config.Threaded ]
  in
  (* head-to-head summary at equal concurrency *)
  Fmt.pr "@.-- evented / threaded at equal concurrency --@.";
  List.iter
    (fun conns ->
      let find io =
        List.find
          (fun c -> c.cell_io = io && c.cell_conns = conns)
          cells
      in
      let e = find Service.Config.Evented
      and t = find Service.Config.Threaded in
      Fmt.pr "%6d conns: rps x%.2f, p99 x%.2f@." conns (e.rps /. t.rps)
        (e.p99_us /. t.p99_us))
    conns_list;
  match json with
  | None -> ()
  | Some path ->
    let cell_json c =
      Report.Json.Obj
        [
          ( "io_model",
            Report.Json.String
              (Service.Config.io_model_to_string c.cell_io) );
          ("conns", Report.Json.Int c.cell_conns);
          ("rps", Report.Json.Float c.rps);
          ("p50_us", Report.Json.Float c.p50_us);
          ("p99_us", Report.Json.Float c.p99_us);
          ("p999_us", Report.Json.Float c.p999_us);
          ("replies", Report.Json.Int c.replies);
          ("err_replies", Report.Json.Int c.err_replies);
          ("cold_sent", Report.Json.Int c.cold_sent);
          ("warm_mismatches", Report.Json.Int c.warm_mismatches);
          ("srv_overloads", Report.Json.Int c.srv_overloads);
          ("srv_wb_stalls", Report.Json.Int c.srv_wb_stalls);
          ("srv_coalesced", Report.Json.Int c.srv_coalesced);
        ]
    in
    let doc =
      Report.Json.Obj
        [
          ("schema", Report.Json.String "codar-bench-loadgen/1");
          ("ocaml", Report.Json.String Sys.ocaml_version);
          ("duration_s", Report.Json.Float duration);
          ("window", Report.Json.Int window);
          ("trials", Report.Json.Int trials);
          ("warm_line", Report.Json.String lg_warm_line);
          ("cells", Report.Json.List (List.map cell_json cells));
        ]
    in
    let oc = open_out path in
    Report.Json.output oc doc;
    close_out oc;
    Fmt.pr "wrote %s@." path

(* ------------------------------------------------------------------ Scale *)

(* bench scale: the route-time / footprint complexity curve over
   (qubits × gates), from the dense 20-qubit devices up through the
   100–400-qubit sparse tier (BENCH_PR10.json). Each cell resolves its
   device through [Devices.by_name] (the same path the CLI takes), routes
   one suite workload under the identity placement, verifies the
   schedule, and records what the distance provider actually
   materialised (BFS rows cached × row size). Sparse cells assert the
   tier's defining property: no O(V²) matrix is ever built — their
   [dist_bytes] must stay strictly below the dense table's [word·n²]. *)

let scale_device name =
  match Arch.Devices.by_name name with
  | Some c -> c
  | None -> Fmt.failwith "scale: unknown device %S" name

type scale_row = {
  sc_device : string;
  sc_backend : string;
  sc_n : int;
  sc_edges : int;
  sc_workload : string;
  sc_gates : int;
  sc_build_ms : float;
  sc_route_ms : float;
  sc_makespan : int;
  sc_swaps : int;
  sc_rows_cached : int;
  sc_dist_bytes : int;
  sc_dense_bytes : int;
  sc_alloc_mb : float;
  sc_top_heap_mb : float;
}

let scale_cell (dname, wname) =
  let t0 = Unix.gettimeofday () in
  let coupling = scale_device dname in
  let build_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let n = Arch.Coupling.n_qubits coupling in
  let entry =
    match Workloads.Suite.find wname with
    | Some e -> e
    | None -> Fmt.failwith "scale: benchmark %s missing" wname
  in
  let circuit = Lazy.force entry.Workloads.Suite.circuit in
  let maqam = Arch.Maqam.make ~coupling ~durations:superconducting in
  let initial =
    Arch.Layout.identity ~n_logical:(Qc.Circuit.n_qubits circuit)
      ~n_physical:n
  in
  let a0 = Gc.allocated_bytes () in
  let t1 = Unix.gettimeofday () in
  let routed = Codar.Remapper.run ~maqam ~initial circuit in
  let route_ms = (Unix.gettimeofday () -. t1) *. 1e3 in
  let alloc_mb = (Gc.allocated_bytes () -. a0) /. 1048576. in
  (match Schedule.Verify.check_all ~maqam ~original:circuit routed with
  | Ok () -> ()
  | Error e ->
    Fmt.failwith "scale: %s on %s failed verify: %a" wname dname
      Schedule.Verify.pp_error e);
  let word = Sys.word_size / 8 in
  let dist_bytes = Arch.Coupling.dist_bytes coupling in
  let dense_bytes = n * n * word in
  let backend =
    match Arch.Coupling.backend coupling with
    | Arch.Coupling.Dense -> "dense"
    | Arch.Coupling.Sparse ->
      (* the whole point of the tier: the provider must not have built
         an O(V²) matrix behind our back *)
      if dist_bytes >= dense_bytes then
        Fmt.failwith
          "scale: sparse %s materialised %d distance bytes (dense table \
           is %d) — provider is not sparse"
          dname dist_bytes dense_bytes;
      "sparse"
  in
  {
    sc_device = dname;
    sc_backend = backend;
    sc_n = n;
    sc_edges = List.length (Arch.Coupling.edges coupling);
    sc_workload = wname;
    sc_gates = Qc.Circuit.length circuit;
    sc_build_ms = build_ms;
    sc_route_ms = route_ms;
    sc_makespan = routed.Schedule.Routed.makespan;
    sc_swaps = Schedule.Routed.swap_count routed;
    sc_rows_cached = Arch.Coupling.rows_cached coupling;
    sc_dist_bytes = dist_bytes;
    sc_dense_bytes = dense_bytes;
    sc_alloc_mb = alloc_mb;
    sc_top_heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * word)
      /. 1048576.;
  }

let scale ?json ~smoke () =
  Fmt.pr
    "@.== Scale: route time and distance footprint vs (qubits x gates) ==@.";
  let cells =
    if smoke then [ ("tokyo", "qft_8"); ("heavy-hex-9", "ghz_128") ]
    else
      [
        ("tokyo", "qft_16");
        ("sycamore", "rand_36");
        ("grid-10x10", "rand_100_20k");
        ("heavy-hex-7", "rand_100_20k");
        ("heavy-hex-9", "rand_128_100k");
        ("grid-20x20", "rand_128_100k");
        (* 100k gates on heavy-hex-13 routes, but the degree-3 lattice's
           long distances push it past the single-cell patience budget
           (~10 min); the 20k workload pins the 409-qubit point at bench
           scale, and the 100k/sparse claim is carried by heavy-hex-9 and
           grid-20x20 above. *)
        ("heavy-hex-13", "rand_100_20k");
      ]
  in
  Fmt.pr "%-13s %-7s %4s %5s %-13s %7s %8s %9s %6s %5s %10s %11s %9s@."
    "device" "backend" "n" "edges" "workload" "gates" "build_ms" "route_ms"
    "swaps" "rows" "dist_bytes" "dense_bytes" "alloc_mb";
  let rows =
    List.map
      (fun cell ->
        (* progress on stderr: stdout is often piped and full-buffered,
           and the big cells take tens of seconds each *)
        Fmt.epr "scale: %s/%s...@." (fst cell) (snd cell);
        let r = scale_cell cell in
        Fmt.pr "%-13s %-7s %4d %5d %-13s %7d %8.1f %9.1f %6d %5d %10d %11d \
                %9.1f@."
          r.sc_device r.sc_backend r.sc_n r.sc_edges r.sc_workload r.sc_gates
          r.sc_build_ms r.sc_route_ms r.sc_swaps r.sc_rows_cached
          r.sc_dist_bytes r.sc_dense_bytes r.sc_alloc_mb;
        r)
      cells
  in
  let sparse = List.filter (fun r -> r.sc_backend = "sparse") rows in
  if sparse <> [] then begin
    let saved =
      List.fold_left
        (fun acc r -> acc + r.sc_dense_bytes - r.sc_dist_bytes)
        0 sparse
    in
    Fmt.pr "@.sparse cells: %d, dense-table bytes avoided: %d@."
      (List.length sparse) saved
  end;
  match json with
  | None -> ()
  | Some path ->
    let row_json r =
      Report.Json.Obj
        [
          ("device", Report.Json.String r.sc_device);
          ("backend", Report.Json.String r.sc_backend);
          ("qubits", Report.Json.Int r.sc_n);
          ("edges", Report.Json.Int r.sc_edges);
          ("workload", Report.Json.String r.sc_workload);
          ("gates", Report.Json.Int r.sc_gates);
          ("build_ms", Report.Json.Float r.sc_build_ms);
          ("route_ms", Report.Json.Float r.sc_route_ms);
          ("makespan", Report.Json.Int r.sc_makespan);
          ("swaps", Report.Json.Int r.sc_swaps);
          ("dist_rows_cached", Report.Json.Int r.sc_rows_cached);
          ("dist_bytes", Report.Json.Int r.sc_dist_bytes);
          ("dense_table_bytes", Report.Json.Int r.sc_dense_bytes);
          ("route_alloc_mb", Report.Json.Float r.sc_alloc_mb);
          ("top_heap_mb", Report.Json.Float r.sc_top_heap_mb);
        ]
    in
    let doc =
      Report.Json.Obj
        [
          ("schema", Report.Json.String "codar-bench-scale/1");
          ("ocaml", Report.Json.String Sys.ocaml_version);
          ("smoke", Report.Json.Bool smoke);
          ("cells", Report.Json.List (List.map row_json rows));
        ]
    in
    let oc = open_out path in
    Report.Json.output oc doc;
    close_out oc;
    Fmt.pr "wrote %s@." path

let usage () =
  Fmt.epr
    "usage: main.exe \
     [all|table1|fig8|fig8-fast|fig9|ablation|initmap|swaps|baselines|esp|\
     objectives|perf|smoke|loadgen|scale] [-j|--jobs N] [--json PATH]\n\
    \       main.exe loadgen [--conns N,N,..] [--duration S] [--smoke] \
     [--json PATH]\n\
    \       main.exe scale [--smoke] [--json PATH]@.";
  exit 2

let scale_cmd ?json rest =
  let smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: r ->
      smoke := true;
      parse r
    | _ -> usage ()
  in
  parse rest;
  scale ?json ~smoke:!smoke ()

let loadgen_cmd ?json rest =
  let conns = ref [ 8; 64; 512 ] in
  let duration = ref 5.0 in
  let smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: r ->
      smoke := true;
      parse r
    | "--conns" :: v :: r ->
      conns :=
        List.map
          (fun s ->
            match int_of_string_opt (String.trim s) with
            | Some n when n >= 1 -> n
            | Some _ | None -> usage ())
          (String.split_on_char ',' v);
      parse r
    | "--duration" :: v :: r ->
      (match float_of_string_opt v with
      | Some d when d > 0. -> duration := d
      | Some _ | None -> usage ());
      parse r
    | _ -> usage ()
  in
  parse rest;
  let trials = if !smoke then 1 else 3 in
  if !smoke then begin
    conns := [ 4 ];
    duration := 0.3
  end;
  loadgen ?json ~conns_list:!conns ~duration:!duration ~trials ()

(* ------------------------------------------------------------------ main *)

let () =
  let rec extract jobs json acc = function
    | [] -> (jobs, json, List.rev acc)
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> extract n json acc rest
      | Some _ | None -> usage ())
    | [ "-j" ] | [ "--jobs" ] | [ "--json" ] -> usage ()
    | "--json" :: v :: rest -> extract jobs (Some v) acc rest
    | x :: rest -> extract jobs json (x :: acc) rest
  in
  let jobs, json, args = extract 1 None [] (List.tl (Array.to_list Sys.argv)) in
  let jobs = if jobs = 0 then Pool.default_jobs () else jobs in
  let t0 = Unix.gettimeofday () in
  (match args with
  | "loadgen" :: rest ->
    (* forks daemon children; runs before any pool domain exists *)
    loadgen_cmd ?json rest
  | "scale" :: rest ->
    (* sequential by design: route times are the measurement *)
    scale_cmd ?json rest
  | _ ->
    Pool.with_pool ~jobs (fun pool ->
      match args with
      | [] | [ "all" ] ->
        table1 ();
        fig8 ~pool ();
        fig9 ~pool ();
        ablation ~pool ();
        initmap ();
        swaps ();
        baselines ();
        esp ();
        perf ?json ()
      | [ "table1" ] -> table1 ()
      | [ "fig8" ] -> fig8 ~pool ()
      | [ "fig8-fast" ] -> fig8 ~fast:true ~pool ()
      | [ "fig9" ] -> fig9 ~pool ()
      | [ "ablation" ] -> ablation ~pool ()
      | [ "initmap" ] -> initmap ()
      | [ "swaps" ] -> swaps ()
      | [ "baselines" ] -> baselines ()
      | [ "esp" ] -> esp ()
      | [ "objectives" ] -> objectives_table ?json ()
      | [ "perf" ] -> perf ?json ()
      | [ "smoke" ] -> smoke ()
      | _ -> usage ()));
  Fmt.pr "@.(total wall time with %d job%s: %.1fs)@." jobs
    (if jobs = 1 then "" else "s")
    (Unix.gettimeofday () -. t0)
