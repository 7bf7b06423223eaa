(* Experiment harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- device/duration survey (Table I)
     dune exec bench/main.exe fig8       -- speedup vs SABRE, 4 architectures
     dune exec bench/main.exe fig9       -- fidelity maintenance
     dune exec bench/main.exe ablation   -- design-choice ablations
     dune exec bench/main.exe fig8-fast  -- fig8 on a subset (CI-friendly)
     dune exec bench/main.exe framing    -- daemon CPU of one large frame

   The routing sweeps (fig8, fig9, ablation) are independent-job fan-outs;
   `--jobs N` (or `-j N`, anywhere on the command line) routes them over a
   deterministic N-domain pool — output is byte-identical for every N
   (docs/PARALLEL.md). `--jobs 0` means all cores. *)

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

(* CODAR's and SABRE's schedules from SABRE's placement, flat. *)
let timeline_pair maqam circuit =
  let initial = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
  ( Codar.Remapper.route ~maqam ~initial circuit Schedule.Timeline.copy,
    Sabre.Router.timeline ~maqam ~initial circuit )

(* The same pair in list form, for the simulator. *)
let route_pair maqam circuit =
  let codar, sabre = timeline_pair maqam circuit in
  (Schedule.Timeline.to_routed codar, Schedule.Timeline.to_routed sabre)

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
            let codar, sabre = timeline_pair maqam c in
            ( e.name,
              e.n_qubits,
              Qc.Circuit.length c,
              codar.Schedule.Timeline.makespan,
              sabre.Schedule.Timeline.makespan ))
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
            let codar, sabre = timeline_pair maqam c in
            let stat r = Schedule.Stats.of_timeline ~n_physical ~original:c r in
            ( cs + Schedule.Timeline.swap_count codar,
              ss + Schedule.Timeline.swap_count sabre,
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
          let codar, sabre = timeline_pair maqam c in
          let esp r =
            (Sim.Reliability.estimate ~calibration ~n_physical:20 r).esp
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

(* Every routing objective against makespan on the whole [--fitting]
   suite of the four paper devices (each benchmark that fits the device),
   under each calibrated duration profile, placed by SABRE as
   [codar_cli batch] places. Per profile and objective it reports the
   cells whose routed events differ from makespan's, the geo-means of
   the per-cell weighted-depth and ESP ratios to makespan (over all cells
   and over those of at most 12 qubits), wins and losses on each metric,
   and the change of the SWAP total. The bar (EXPERIMENTS.md): an
   objective stays only if, under at least one profile, its geo-mean over
   all cells beats makespan on the metric it claims. *)

type objective_cell = {
  qubits : int;
  changed : bool;  (* routed events differ from makespan's *)
  wdepth : int;  (* weighted depth: the routed makespan *)
  swaps : int;
  ln_esp : float;  (* ln ESP, which a long schedule does not underflow *)
}

let objective_devices =
  Arch.Devices.
    [ ibm_q16_melbourne; ibm_q20_tokyo; enfield_6x6; sycamore_54 ]

let objective_profiles =
  Arch.Durations.[ superconducting; ion_trap; neutral_atom ]

(* The metric an objective claims to improve: t2 claims ESP; the bonus
   objectives measured with it (BENCH_PR28.json) claimed weighted depth. *)
let claimed_metric o =
  if Objective.name o = "t2" then "esp" else "weighted_depth"

let same_events (a : Schedule.Timeline.t) (b : Schedule.Timeline.t) =
  let rec from k =
    k >= a.length
    || (Schedule.Timeline.event a k = Schedule.Timeline.event b k
       && from (k + 1))
  in
  a.length = b.length && from 0

(* The routed cells of one profile, per objective of [Objective.all]
   (makespan, the baseline, first), in device then suite order. *)
let objective_cells durations =
  let calibration =
    match Arch.Calibration.for_durations durations with
    | Some c -> c
    | None ->
      Fmt.failwith "objectives: %s has no calibration"
        (Arch.Durations.name durations)
  in
  let cells = List.map (fun _ -> ref []) Objective.all in
  List.iter
    (fun coupling ->
      let maqam = Arch.Maqam.make ~coupling ~durations in
      let n_physical = Arch.Coupling.n_qubits coupling in
      List.iter
        (fun (e : Workloads.Suite.entry) ->
          let circuit = Lazy.force e.circuit in
          let initial =
            Placement.compute (Placement.Reverse_traversal 1) ~maqam circuit
          in
          let routes =
            List.map
              (fun objective ->
                let routed =
                  Codar.Remapper.route
                    ~config:{ Codar.Remapper.default_config with objective }
                    ~maqam ~initial circuit Schedule.Timeline.copy
                in
                (match Schedule.Verify.check ~maqam ~original:circuit routed with
                | Ok () -> ()
                | Error err ->
                  Fmt.failwith "objectives: %s/%s/%s verify failed: %a" e.name
                    (Arch.Coupling.name coupling) (Objective.name objective)
                    Schedule.Verify.pp_error err);
                routed)
              Objective.all
          in
          let baseline = List.hd routes in
          List.iter2
            (fun (routed : Schedule.Timeline.t) acc ->
              acc :=
                {
                  qubits = e.n_qubits;
                  changed = not (same_events routed baseline);
                  wdepth = routed.makespan;
                  swaps = Schedule.Timeline.swap_count routed;
                  ln_esp =
                    (Sim.Reliability.estimate ~calibration ~n_physical routed)
                      .ln_esp;
                }
                :: !acc)
            routes cells)
        (Workloads.Suite.fitting ~max_qubits:n_physical))
    objective_devices;
  List.map (fun acc -> Array.of_list (List.rev !acc)) cells

(* Geo-mean of [f o b] over the cell pairs that [keep] admits. *)
let ratio_gm ~keep f base cells =
  let sum = ref 0. and k = ref 0 in
  Array.iteri
    (fun i b ->
      let o = cells.(i) in
      if keep o b then begin
        sum := !sum +. log (f o b);
        incr k
      end)
    base;
  if !k = 0 then nan else exp (!sum /. float_of_int !k)

let count p base cells =
  let n = ref 0 in
  Array.iteri (fun i b -> if p cells.(i) b then incr n) base;
  !n

let objectives_table ?json () =
  Fmt.pr
    "@.== Routing objectives against makespan (CODAR, every benchmark that \
     fits each paper device, SABRE placement) ==@.";
  let wd o b = float_of_int o.wdepth /. float_of_int b.wdepth in
  (* every cell has an ESP ratio: exp of the ln ESP difference *)
  let esp o b = exp (o.ln_esp -. b.ln_esp) in
  let all _ _ = true and small o _ = o.qubits <= 12 in
  let won = Hashtbl.create 4 in
  let profiles =
    List.map
      (fun durations ->
        let dname = Arch.Durations.name durations in
        let per_objective = objective_cells durations in
        let base = List.hd per_objective in
        let n_small = count small base base in
        let base_swaps = Array.fold_left (fun a c -> a + c.swaps) 0 base in
        Fmt.pr "@.-- %s: %d cells (%d of <= 12 qubits), makespan %d SWAPs --@."
          dname (Array.length base) n_small base_swaps;
        Fmt.pr "%-9s %-14s %7s %8s %8s %8s %8s %9s %9s %8s@." "objective"
          "claims" "changed" "wd_gm" "wd_le12" "esp_gm" "esp_le12" "wd_w/l"
          "esp_w/l" "swaps_d";
        let rows =
          List.map2
            (fun objective cells ->
              let name = Objective.name objective in
              let claims = claimed_metric objective in
              let changed = count (fun o _ -> o.changed) base cells in
              let wd_gm = ratio_gm ~keep:all wd base cells in
              let wd_small = ratio_gm ~keep:small wd base cells in
              let esp_gm = ratio_gm ~keep:all esp base cells in
              let esp_small = ratio_gm ~keep:small esp base cells in
              let wd_wins = count (fun o b -> o.wdepth < b.wdepth) base cells in
              let wd_losses =
                count (fun o b -> o.wdepth > b.wdepth) base cells
              in
              let esp_wins = count (fun o b -> o.ln_esp > b.ln_esp) base cells in
              let esp_losses =
                count (fun o b -> o.ln_esp < b.ln_esp) base cells
              in
              let swaps = Array.fold_left (fun a c -> a + c.swaps) 0 cells in
              let beats =
                if claims = "esp" then esp_gm > 1. else wd_gm < 1.
              in
              if beats then
                Hashtbl.replace won name
                  (dname :: Option.value ~default:[] (Hashtbl.find_opt won name));
              Fmt.pr "%-9s %-14s %7d %8.4f %8.4f %8.4f %8.4f %4d/%-4d %4d/%-4d \
                      %+8d@."
                name claims changed wd_gm wd_small esp_gm esp_small wd_wins
                wd_losses esp_wins esp_losses (swaps - base_swaps);
              Report.Json.Obj
                [
                  ("objective", Report.Json.String name);
                  ("claims", Report.Json.String claims);
                  ("cells_changed", Report.Json.Int changed);
                  ("weighted_depth_gm", Report.Json.Float wd_gm);
                  ("weighted_depth_gm_le12", Report.Json.Float wd_small);
                  ("esp_gm", Report.Json.Float esp_gm);
                  ("esp_gm_le12", Report.Json.Float esp_small);
                  ("weighted_depth_wins", Report.Json.Int wd_wins);
                  ("weighted_depth_losses", Report.Json.Int wd_losses);
                  ("esp_wins", Report.Json.Int esp_wins);
                  ("esp_losses", Report.Json.Int esp_losses);
                  ("swaps", Report.Json.Int swaps);
                  ("swap_delta", Report.Json.Int (swaps - base_swaps));
                  ("beats_makespan", Report.Json.Bool beats);
                ])
            (List.tl Objective.all) (List.tl per_objective)
        in
        Report.Json.Obj
          [
            ("durations", Report.Json.String dname);
            ("cells", Report.Json.Int (Array.length base));
            ("cells_le12", Report.Json.Int n_small);
            ("makespan_swaps", Report.Json.Int base_swaps);
            ("objectives", Report.Json.List rows);
          ])
      objective_profiles
  in
  Fmt.pr "@.-- bar: beat makespan's geo-mean on the claimed metric under at \
          least one profile --@.";
  let decision =
    List.map
      (fun objective ->
        let name = Objective.name objective in
        let profiles =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt won name))
        in
        Fmt.pr "%-9s %-14s %s@." name (claimed_metric objective)
          (match profiles with
          | [] -> "misses the bar"
          | ps -> "meets the bar under " ^ String.concat ", " ps);
        Report.Json.Obj
          [
            ("objective", Report.Json.String name);
            ("claims", Report.Json.String (claimed_metric objective));
            ("meets_bar", Report.Json.Bool (profiles <> []));
            ( "profiles_won",
              Report.Json.List (List.map (fun p -> Report.Json.String p) profiles)
            );
          ])
      (List.tl Objective.all)
  in
  match json with
  | None -> ()
  | Some path ->
    let doc =
      Report.Json.Obj
        [
          ("schema", Report.Json.String "codar-bench-objectives/3");
          ( "devices",
            Report.Json.List
              (List.map
                 (fun c -> Report.Json.String (Arch.Coupling.name c))
                 objective_devices) );
          ("placement", Report.Json.String "sabre-1");
          ( "objectives",
            Report.Json.List
              (List.map (fun o -> Report.Json.String (Objective.name o))
                 Objective.all) );
          ( "bar",
            Report.Json.String
              "an objective stays only if, under at least one profile, its \
               geo-mean over all cells beats makespan on the metric it \
               claims" );
          ("profiles", Report.Json.List profiles);
          ("decision", Report.Json.List decision);
        ]
    in
    let oc = open_out path in
    Report.Json.output oc doc;
    close_out oc;
    Fmt.pr "wrote %s@." path

(* ------------------------------------------------------------------ smoke *)

(* Words [f ()] allocates in this domain: minor words from
   [Gc.minor_words] and words allocated straight into the major heap (an
   array over 256 words goes there), read from [Gc.counters] as major
   minus promoted words with the minor heap emptied at both ends —
   [Gc.counters] and [Gc.quick_stat] bring their counts up to date only
   at minor collections. *)
let allocated f =
  Gc.minor ();
  let _, p0, j0 = Gc.counters () in
  let m0 = Gc.minor_words () in
  let r = f () in
  let m1 = Gc.minor_words () in
  Gc.minor ();
  let _, p1, j1 = Gc.counters () in
  (r, m1 -. m0, j1 -. p1 -. (j0 -. p0))

(* An allocation fence: [f ()]'s minor and direct-major words stay within
   their ceilings; with [repeat], [f] runs twice and both counts must
   repeat exactly. *)
let fence ?(repeat = false) name ~minor ~major f =
  let r, m, j = allocated f in
  (if repeat then
     let _, m', j' = allocated f in
     if m' <> m || j' <> j then
       Fmt.failwith
         "smoke: %s allocated %.0f minor and %.0f direct-major words, then \
          %.0f and %.0f: the counts do not repeat"
         name m j m' j');
  if m > minor || j > major then
    Fmt.failwith
      "smoke: %s allocated %.0f minor words (ceiling %.0f) and %.0f \
       direct-major words (ceiling %.0f) — a hot path allocates again"
      name m minor j major;
  Fmt.pr "smoke: %s: %.0f minor + %.0f direct-major words (ceilings %.0f, \
          %.0f)@."
    name m j minor major;
  r

(* One small end-to-end routing run plus the stats path, wired into [dune
   runtest] (the [bench-smoke] alias in bench/dune) so the instrumentation
   cannot silently rot. Exits non-zero on any failure. *)
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
  let routed =
    Codar.Remapper.route ~stats ~maqam ~initial circuit Schedule.Timeline.copy
  in
  (match Schedule.Verify.check ~maqam ~original:circuit routed with
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
    routed.Schedule.Timeline.makespan
    (Schedule.Timeline.swap_count routed);
  Fmt.pr "smoke: %a@." Codar.Stats.pp stats;
  (* incremental-scoring regression fence: the seed router performed 2140
     full heuristic evaluations routing qft_16 on Tokyo (BENCH_PR3.json).
     The delta-maintained scorer only evaluates Hfine for ties in the top
     positive bucket; hold it to at least a 5x reduction so a revert to
     scan-everything scoring fails runtest. *)
  let circuit16 =
    match Workloads.Suite.find "qft_16" with
    | Some e -> Lazy.force e.circuit
    | None -> Fmt.failwith "smoke: benchmark qft_16 missing"
  in
  let initial16 = Sabre.Initial_mapping.reverse_traversal ~maqam circuit16 in
  let stats16 = Codar.Stats.create () in
  let routed16 =
    Codar.Remapper.route ~stats:stats16 ~maqam ~initial:initial16 circuit16
      Schedule.Timeline.copy
  in
  (match Schedule.Verify.check ~maqam ~original:circuit16 routed16 with
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
  (* Allocation fences. Each counts the words a call allocates in this
     domain, minor and straight into the major heap, and holds both to
     ceilings of 1.5x the counts measured when they were set, so a revert
     to allocating hot paths fails runtest. The counts are deterministic;
     where the call can run twice on the same state, it does, and both
     counts must repeat exactly. *)
  let cold =
    Workloads.Builders.random_circuit ~n:12 ~gates:400
      ~two_qubit_fraction:0.45 ~seed:17
  in
  (* placement and route, the schedule read where CODAR lends it, as the
     daemon's record reads it: here, its makespan *)
  let cold_route c () =
    let initial = Sabre.Initial_mapping.reverse_traversal ~maqam c in
    Codar.Remapper.route ~maqam ~initial c (fun t -> t.Schedule.Timeline.makespan)
  in
  (* the same route again, kept and verified *)
  let verified name c makespan =
    let initial = Sabre.Initial_mapping.reverse_traversal ~maqam c in
    let t = Codar.Remapper.route ~maqam ~initial c Schedule.Timeline.copy in
    if t.makespan <> makespan then
      Fmt.failwith "smoke: %s does not repeat its makespan %d" name makespan;
    match Schedule.Verify.check ~maqam ~original:c t with
    | Ok () -> ()
    | Error e ->
      Fmt.failwith "smoke: %s verify failed: %a" name Schedule.Verify.pp_error
        e
  in
  let cold2 =
    Workloads.Builders.random_circuit ~n:12 ~gates:400
      ~two_qubit_fraction:0.45 ~seed:18
  in
  (* Two cold routes of the daemon's cold shape (12 qubits, 400 gates
     with rz angles) on Tokyo, SABRE placement then CODAR, in a fresh
     domain. The first grows the routers' per-domain working arrays from
     nothing, and those over 256 words go straight into the major heap;
     most of its minor words are exact checks that fill parameter-free
     verdicts this process has not met yet. The second, another circuit
     of the same shape, runs on the arrays the first grew, the schedule
     among them, and nothing goes straight into the major heap. With the
     schedule as a list of event records they took 26,890 + 15,379 and
     6,722 + 0 words (minor + direct-major); with CODAR's arrays per
     route 33,712 + 13,841 and 15,311 + 9,652; 190k minor words before
     the flat CF tracker and SWAP cycle, 468k before the
     allocation-free scoring and commutation paths. *)
  let routed_cold, routed_cold2 =
    Domain.join
      (Domain.spawn (fun () ->
           let r1 =
             fence "cold 12q x 400 route on tokyo, fresh domain"
               ~minor:30_548. ~major:23_069. (cold_route cold)
           in
           let r2 =
             fence ~repeat:true "second cold 12q x 400 route in that domain"
               ~minor:831. ~major:0. (cold_route cold2)
           in
           (r1, r2)))
  in
  verified "cold route" cold routed_cold;
  verified "second cold route" cold2 routed_cold2;
  (* ingest: the same circuit as a daemon request frame, through the
     three calls every request crosses before the router — frame
     decoding, request resolution (QASM parsing included) and
     fingerprinting (7,401 minor words when the QASM parser reversed its
     gate list and built a tree per parameter, 130,294 when the frame
     decoder boxed a char per peek, the QASM lexer consed a token list
     and the fingerprint went through Printf). The direct-major words
     are the decoded QASM text. *)
  let frame =
    Report.Json.to_string ~indent:0
      (Report.Json.Obj
         [
           ("op", Report.Json.String "route");
           ("qasm", Report.Json.String (Qasm.Printer.to_string cold));
           ("arch", Report.Json.String "tokyo");
         ])
  in
  let fp =
    fence ~repeat:true "cold 12q x 400 frame ingest" ~minor:5_942.
      ~major:2_244. (fun () ->
        match Service.Protocol.parse_frame frame with
        | Ok (_, Service.Protocol.Route rr) -> (
          match Service.Engine.spec_of_route_req rr with
          | Ok spec -> Service.Engine.fingerprint spec
          | Error msg -> Fmt.failwith "smoke: cold frame refused: %s" msg)
        | Ok _ | Error _ -> Fmt.failwith "smoke: cold frame does not decode")
  in
  ignore (fp : string);
  (* parse: the cold circuit's text alone through the QASM reader, one
     list cell and the gate per gate (6,518 words when the gate list was
     reversed at the end and every parameter went through an expression
     tree and a list) *)
  let text = Qasm.Printer.to_string cold in
  let (_ : Qc.Circuit.t) =
    fence ~repeat:true "cold 12q x 400 parse" ~minor:4_617. ~major:0.
      (fun () -> Qasm.Parser.parse text)
  in
  (* CODAR alone: qft_16 on Tokyo from the identity layout, routing only,
     on this domain's warm working arrays, the schedule read where it is
     lent (9,011 words when the route built an event list; 21,938 +
     13,732 with CODAR's arrays per route; 228,682 minor words with the
     list- and option-based CF tracker and SWAP cycle) *)
  let identity16 =
    Arch.Layout.identity
      ~n_logical:(Qc.Circuit.n_qubits circuit16)
      ~n_physical:(Arch.Maqam.n_qubits maqam)
  in
  let (_ : int) =
    fence ~repeat:true "CODAR alone on qft_16/tokyo from identity"
      ~minor:459. ~major:0. (fun () ->
        Codar.Remapper.route ~maqam ~initial:identity16 circuit16 (fun t ->
            t.Schedule.Timeline.makespan))
  in
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
    p1.Codar.Portfolio.routed.Schedule.Timeline.makespan

(* --------------------------------------------------------------- Loadgen *)

(* Sustained-load benchmark for the compile service: for each
   concurrency cell, fork a daemon child, drive N persistent pipelined
   connections from one single-threaded select loop for a fixed
   wall-clock window, and report sustained RPS plus
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

let lg_cell ~conns ~duration ~warmup ~window ~trials =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "codar-loadgen-%d-%d.sock" (Unix.getpid ()) conns)
  in
  (* the daemon child: fresh process, own domains/threads, own fd table *)
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       ignore
         (Service.Server.run
            (* a deep queue so the daemon does not shed colds as cheap
               ["overloaded"] errors: every cell does the same route work *)
            (Service.Server.config ~jobs:(Pool.default_jobs ())
               ~cache_entries:1024 ~queue_capacity:1024 ~socket_path:sock ()))
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
  Fmt.pr "@.== Sustained load (warm route + 1/16 cold, %.1fs/cell) ==@."
    duration;
  let warmup = Float.min 1.0 (Float.max 0.1 (duration /. 5.)) in
  let window = 8 in
  Fmt.pr "%6s %10s %9s %9s %9s %9s %7s %6s@." "conns" "rps" "p50(us)"
    "p99(us)" "p999(us)" "replies" "cold" "errs";
  let cells =
    List.map
      (fun conns ->
        let c = lg_cell ~conns ~duration ~warmup ~window ~trials in
        Fmt.pr "%6d %10.0f %9.0f %9.0f %9.0f %9d %7d %6d@." c.cell_conns c.rps
          c.p50_us c.p99_us c.p999_us c.replies c.cold_sent c.err_replies;
        if c.replies = 0 then failwith "loadgen: no replies measured";
        if c.warm_mismatches > 0 then
          Fmt.failwith
            "loadgen: %d warm replies were not byte-identical under load (%d \
             conns)"
            c.warm_mismatches c.cell_conns;
        c)
      conns_list
  in
  match json with
  | None -> ()
  | Some path ->
    let cell_json c =
      Report.Json.Obj
        [
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
          ("schema", Report.Json.String "codar-bench-loadgen/2");
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

(* ---------------------------------------------------------------- Framing *)

(* bench framing: the daemon CPU one large frame costs, read in pieces.
   A forked daemon (defaults: the 8 MiB frame cap) gets one
   newline-terminated frame of [size] bytes of 'x', written [piece] bytes
   per write; the CPU the daemon spent from the first byte to the reply
   (a [parse] error, at once) is read from /proc/<pid>/stat, in 10 ms
   ticks. Framing that copies and re-scans the buffered partial frame on
   every read is quadratic in the frame size; the framer is linear. *)

let framing_cases =
  let mib = 1024 * 1024 in
  (8 * mib, 65536) :: List.map (fun m -> (m * mib, 4096)) [ 1; 2; 4; 8 ]

let proc_cpu_s pid =
  let ic = open_in (Fmt.str "/proc/%d/stat" pid) in
  let stat =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  in
  (* utime and stime, in ticks: fields 14 and 15, the 12th and 13th
     after the ")" that closes the command name *)
  let i = String.rindex stat ')' + 2 in
  let fields =
    Array.of_list
      (String.split_on_char ' ' (String.sub stat i (String.length stat - i)))
  in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

let framing_rows () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "codar-framing-%d.sock" (Unix.getpid ()))
  in
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       ignore
         (Service.Server.run
            (Service.Server.config ~jobs:1 ~socket_path:sock ()))
     with _ -> ());
    Unix._exit 0
  end;
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if tries = 0 then failwith "framing: daemon did not come up";
      Unix.sleepf 0.02;
      connect (tries - 1)
  in
  Unix.close (connect 500);
  let rows =
    List.map
      (fun (size, piece) ->
        let frame = String.make size 'x' ^ "\n" in
        let fd = connect 0 in
        let cpu0 = proc_cpu_s pid and t0 = Unix.gettimeofday () in
        let pos = ref 0 in
        while !pos < String.length frame do
          let n = min piece (String.length frame - !pos) in
          pos := !pos + Unix.write_substring fd frame !pos n
        done;
        let reply =
          match Service.Frame.read (Service.Frame.reader fd) with
          | `Line l -> l
          | `Eof | `Oversized -> "(no reply)"
        in
        let wall = Unix.gettimeofday () -. t0 in
        let cpu = proc_cpu_s pid -. cpu0 in
        Unix.close fd;
        if not (String.starts_with ~prefix:{|{"ok":false,"code":"parse"|} reply)
        then Fmt.failwith "framing: unexpected reply %S" reply;
        Fmt.pr "%4d MiB frame, %5d B writes: daemon cpu %6.2f s, wall %6.2f s@."
          (size / (1024 * 1024)) piece cpu wall;
        (size, piece, cpu, wall))
      framing_cases
  in
  Service.Client.with_connection sock (fun t ->
      ignore (Service.Client.request t {|{"op":"shutdown"}|}));
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> failwith "framing: daemon child did not exit cleanly");
  rows

let framing ?json () =
  Fmt.pr "@.== Framing: one large frame, daemon CPU to the reply ==@.";
  let rows = framing_rows () in
  match json with
  | None -> ()
  | Some path ->
    let row (size, piece, cpu, wall) =
      Report.Json.Obj
        [
          ("frame_bytes", Report.Json.Int size);
          ("write_bytes", Report.Json.Int piece);
          ("daemon_cpu_s", Report.Json.Float cpu);
          ("wall_s", Report.Json.Float wall);
        ]
    in
    let doc =
      Report.Json.Obj
        [
          ("schema", Report.Json.String "codar-bench-framing/2");
          ("ocaml", Report.Json.String Sys.ocaml_version);
          ("cells", Report.Json.List (List.map row rows));
        ]
    in
    let oc = open_out path in
    Report.Json.output oc doc;
    close_out oc;
    Fmt.pr "wrote %s@." path

(* ------------------------------------------------------------------ Scale *)

(* bench scale: the route-time complexity curve over (qubits × gates),
   from the 20-qubit devices up through the 100–400-qubit large tier.
   Each cell resolves its device through [Devices.by_name] (the same path
   the CLI takes), routes one suite workload under the identity
   placement, verifies the schedule, and records the build and route
   time, the routed result and the allocation. The build time is what
   [by_name] cost: a device's first cell builds it, later cells find it
   memoised. *)

let scale_device name =
  match Arch.Devices.by_name name with
  | Some c -> c
  | None -> Fmt.failwith "scale: unknown device %S" name

type scale_row = {
  sc_device : string;
  sc_n : int;
  sc_edges : int;
  sc_workload : string;
  sc_gates : int;
  sc_build_ms : float;
  sc_route_ms : float;
  sc_makespan : int;
  sc_swaps : int;
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
  {
    sc_device = dname;
    sc_n = n;
    sc_edges = List.length (Arch.Coupling.edges coupling);
    sc_workload = wname;
    sc_gates = Qc.Circuit.length circuit;
    sc_build_ms = build_ms;
    sc_route_ms = route_ms;
    sc_makespan = routed.Schedule.Routed.makespan;
    sc_swaps = Schedule.Routed.swap_count routed;
    sc_alloc_mb = alloc_mb;
    sc_top_heap_mb =
      float_of_int
        ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.;
  }

let scale ?json ~smoke () =
  Fmt.pr "@.== Scale: route time vs (qubits x gates) ==@.";
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
        (* 100k gates on heavy-hex-13 do not finish: past the first
           ~55k gates CODAR's forced SWAPs cycle (ROADMAP). The 20k
           workload pins the 409-qubit point, and the 100k gates are
           carried by heavy-hex-9 and grid-20x20 above. *)
        ("heavy-hex-13", "rand_100_20k");
      ]
  in
  Fmt.pr "%-13s %4s %5s %-13s %7s %8s %9s %6s %8s %9s@." "device" "n"
    "edges" "workload" "gates" "build_ms" "route_ms" "swaps" "makespan"
    "alloc_mb";
  let rows =
    List.map
      (fun cell ->
        (* progress on stderr: stdout is often piped and full-buffered,
           and the big cells take tens of seconds each *)
        Fmt.epr "scale: %s/%s...@." (fst cell) (snd cell);
        let r = scale_cell cell in
        Fmt.pr "%-13s %4d %5d %-13s %7d %8.1f %9.1f %6d %8d %9.1f@."
          r.sc_device r.sc_n r.sc_edges r.sc_workload r.sc_gates
          r.sc_build_ms r.sc_route_ms r.sc_swaps r.sc_makespan r.sc_alloc_mb;
        r)
      cells
  in
  match json with
  | None -> ()
  | Some path ->
    let row_json r =
      Report.Json.Obj
        [
          ("device", Report.Json.String r.sc_device);
          ("qubits", Report.Json.Int r.sc_n);
          ("edges", Report.Json.Int r.sc_edges);
          ("workload", Report.Json.String r.sc_workload);
          ("gates", Report.Json.Int r.sc_gates);
          ("build_ms", Report.Json.Float r.sc_build_ms);
          ("route_ms", Report.Json.Float r.sc_route_ms);
          ("makespan", Report.Json.Int r.sc_makespan);
          ("swaps", Report.Json.Int r.sc_swaps);
          ("route_alloc_mb", Report.Json.Float r.sc_alloc_mb);
          ("top_heap_mb", Report.Json.Float r.sc_top_heap_mb);
        ]
    in
    let doc =
      Report.Json.Obj
        [
          ("schema", Report.Json.String "codar-bench-scale/2");
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
     objectives|smoke|loadgen|scale|framing] [-j|--jobs N] [--json PATH]\n\
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
  | [ "framing" ] ->
    (* forks daemon children, like loadgen *)
    framing ?json ()
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
        esp ()
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
      | [ "smoke" ] -> smoke ()
      | _ -> usage ()));
  Fmt.pr "@.(total wall time with %d job%s: %.1fs)@." jobs
    (if jobs = 1 then "" else "s")
    (Unix.gettimeofday () -. t0)
