(* The repository benchmark: three seeded workloads through the program's
   public entry points, end-to-end metrics from untraced runs, per-layer
   metrics from a separate traced run. See perfbench/README.md.

     bench.exe --workload paper-batch|large-route|daemon-mixed|all
               --seed N --seconds S --trace 0|1 --cli PATH [--short]
     bench.exe selftest --cli PATH [--spec BENCHMARK.json]

   The last line of standard output is the JSON result. *)

open Measure
module Engine = Service.Engine
module Json = Report.Json

(* ------------------------------------------------------------- metrics *)

let e2e_units =
  [
    ("setup_s", "s");
    ("compile_s", "s");
    ("throughput_rps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("warm_latency_p50_ms", "ms");
    ("warm_latency_p99_ms", "ms");
    ("cold_latency_p50_ms", "ms");
    ("cold_latency_p99_ms", "ms");
    ("ok_ratio", "ratio");
    ("makespan_ratio_gm", "ratio");
    ("swaps_total", "count");
    ("alloc_mwords", "Mwords");
    ("peak_rss_mb", "MB");
  ]

(* Set-up is repeated this many times in a run, [setup_before] of them
   before the measured phase and the rest after it, so that the median
   samples the machine at two moments of the run; setup_s is the median. *)
let setup_reps = 7
let setup_before = 4

(* The daemon's measured phase is cut into this many segments of
   requests, with the reference kernel timed between two segments while
   no request is in flight; each segment's times are scaled by the kernel
   samples on either side of it. *)
let segments = 80

(* Rounds of the in-process warm replay on the batch workloads. *)
let warm_rounds = 4

(* What one run of a workload reports. *)
type outcome = {
  e2e : metric list;
  layers : metric list;  (** traced runs only *)
  attempted : int;
  failed : int;
  problems : string list;  (** unexpected check failures *)
  scale : Measure.scale;  (** applied to the time metrics *)
}

(* qft_64 does not parse today: Workloads.Builders.qft computes
   [1 lsl 63], which is 0 on OCaml's 63-bit int, so the circuit prints
   u1(inf). It is counted as a failure, never skipped; the fix lies
   outside the benchmark (README.md, "Known failures"). *)
let known_failure name = name = "qft_64"

let ( /: ) a b = float_of_int a /. float_of_int b

(* The per-layer metrics, in BENCHMARK.json order. *)
let layer_metrics ~(tbl : (string, Span.layer) Hashtbl.t) ~roots ~stats
    ~couplings ~parse_span ~parse_errors ~cache ~report_bytes
    ~unattributed_ms ~(svc : int list) () =
  let l = Span.layer tbl in
  let denom = List.fold_left (fun acc r -> acc +. (l r).busy_s) 0. roots in
  let s = (stats : Codar.Stats.t) in
  let cc = Cache.counters cache in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 couplings in
  let count name v = metric name "count" (float_of_int v) in
  [
    metric "placement.busy_s" "s" (l "placement").busy_s;
    metric "placement.mwords" "Mwords" ((l "placement").words /. 1e6);
    metric "placement.share" "ratio" ((l "placement").busy_s /. denom);
    metric "codar.route_s" "s" (l "codar").busy_s;
    metric "codar.mwords" "Mwords" ((l "codar").words /. 1e6);
    metric "codar.share" "ratio" ((l "codar").busy_s /. denom);
    count "codar.cycles" s.cycles;
    count "codar.cf_recomputes" s.cf_recomputes;
    metric "codar.cf_hit_rate" "ratio" (Codar.Stats.cf_hit_rate s);
    count "codar.heuristic_evals" s.heuristic_evals;
    count "codar.swap_rescores" s.swap_rescores;
    count "codar.swap_candidates" s.swap_candidates;
    count "codar.swaps_inserted" s.swaps_inserted;
    count "codar.forced_swaps" s.forced_swaps;
    metric "codar.swap_yield" "ratio" (s.swaps_inserted /: s.swap_candidates);
    metric "arch.build_s" "s" (l "arch.build").busy_s;
    metric "arch.dist_bytes" "bytes" (float_of_int (sum Arch.Coupling.dist_bytes));
    count "arch.rows_cached" (sum Arch.Coupling.rows_cached);
    metric "qasm.parse_s" "s" (l parse_span).busy_s;
    metric "qasm.parse_mwords" "Mwords" ((l parse_span).words /. 1e6);
    count "qasm.parse_errors" parse_errors;
    metric "cache.fingerprint_s" "s" (l "cache.fingerprint").busy_s;
    metric "cache.lookup_s" "s" (l "cache.lookup").busy_s;
    metric "cache.insert_s" "s" (l "cache.insert").busy_s;
    metric "cache.hit_ratio" "ratio" (Codar.Stats.cache_hit_rate cc);
    count "cache.evictions" cc.evictions;
    metric "report.encode_s" "s" (l "report").busy_s;
    metric "report.bytes" "bytes" (float_of_int report_bytes);
    metric "service.frame_parse_s" "s" (l "service.frame_parse").busy_s;
    metric "service.spec_self_s" "s" (l "service.spec_self").busy_s;
    metric "service.unattributed_ms" "ms" unattributed_ms;
  ]
  @ List.map2
      (fun (name, u) v -> metric name u (float_of_int v))
      [
        ("service.routes_computed", "count"); ("service.responses_err", "count");
        ("service.overloads", "count"); ("service.coalesced", "count");
        ("service.bytes_in", "bytes"); ("service.bytes_out", "bytes");
      ]
      svc
  @ [ metric "schedule.verify_s" "s" (l "schedule.verify").busy_s ]

(* -------------------------------------------------------------- checks *)

let record_field reply path =
  match Json.parse reply with
  | Error _ -> None
  | Ok j ->
    List.fold_left
      (fun acc k -> Option.bind acc (Json.member k))
      (Some j) path

let reply_ok reply = record_field reply [ "ok" ] = Some (Json.Bool true)

(* A cold reply must equal an in-process route of the same request, apart
   from the measured [wall_s], and the route must pass Schedule.Verify; a
   route that raises must have been answered route_failed with the same
   message. [route] is Engine.route, or the traced replay's split route. *)
let cold_matches ?(route = Engine.route) line reply =
  match Service.Protocol.parse_frame line with
  | Ok (id, Service.Protocol.Route rr) -> (
    match Engine.spec_of_route_req rr with
    | Error msg -> Error ("request did not resolve: " ^ msg)
    | Ok spec -> (
      let fp = Engine.fingerprint spec in
      match route spec with
      | exception e ->
        let expected =
          Service.Ops.route_frame ?id
            (Service.Ops.outcome_item ~fp (Error (Printexc.to_string e)))
        in
        if String.equal expected reply then Ok `Failed
        else Error ("the in-process route raised " ^ Printexc.to_string e)
      | record, routed -> (
        match
          Option.bind (record_field reply [ "record"; "wall_s" ]) Json.to_float_opt
        with
        | None -> Error "reply carries no record"
        | Some wall_s ->
          let expected =
            Service.Ops.route_frame ?id
              (Service.Ops.item_ok ~fingerprint:fp
                 { record with Report.Record.wall_s })
          in
          if not (String.equal expected reply) then
            Error "reply differs from the in-process route"
          else (
            match
              Span.with_ "schedule.verify" (fun () ->
                  Schedule.Verify.check_all ~maqam:spec.maqam
                    ~original:spec.circuit routed)
            with
            | Ok () -> Ok `Routed
            | Error e ->
              Error
                (Fmt.str "route fails verification: %a"
                   Schedule.Verify.pp_error e)))))
  | Ok _ | Error _ -> Error "not a route frame"

(* -------------------------------------------------------- batch runs *)

let run_batch ~reqs ~reps ~traced =
  let setup () =
    sample_speed ();
    let t0 = now_ns () in
    let preps = Batch.setup reqs in
    (preps, secs_since t0)
  in
  let before =
    List.init setup_before (fun k ->
        Span.enabled := traced && k = setup_before - 1;
        setup ())
  in
  let preps = fst (List.nth before (setup_before - 1)) in
  Span.enabled := traced;
  let stats = Codar.Stats.create () in
  let cache = Cache.create ~max_entries:1024 () in
  let results, lines =
    Batch.passes ~reps ~warm_rounds ~traced ~stats ~cache preps
  in
  let rss = peak_rss_mb "self" in
  Span.enabled := false;
  let after = List.init (setup_reps - setup_before) (fun _ -> snd (setup ())) in
  Span.enabled := traced;
  let setup_s = median (List.map snd before @ after) in
  (* off the clock from here *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let parse_errors = ref 0 in
  Array.iter
    (fun (p : Batch.prepared) ->
      match p.spec with
      | Ok _ -> ()
      | Error msg ->
        incr parse_errors;
        if not (known_failure p.req.name) then
          problem "%s on %s: %s" p.req.name p.req.arch msg)
    preps;
  let mismatches =
    Array.fold_left (fun acc (r : Batch.routed) -> acc + r.mismatches) 0 results
  in
  if mismatches > 0 then
    problem "%d in-process cache hits differ from their routed record"
      mismatches;
  let ok =
    Array.fold_left
      (fun acc (r : Batch.routed) ->
        match Batch.verify r with
        | Ok () -> acc + 1
        | Error e ->
          problem "%s on %s fails verification: %s" r.prep.req.name
            r.prep.req.arch
            (Fmt.str "%a" Schedule.Verify.pp_error e);
          acc)
      0 results
  in
  let n_routed = Array.length results in
  let attempted = Array.length preps in
  (* each request's time is the fastest of its repetitions *)
  let per_request f =
    Array.map
      (fun (r : Batch.routed) ->
        List.fold_left (fun acc s -> Float.min acc (f s)) infinity r.samples)
      results
  in
  let lat = per_request (fun s -> s.Batch.wall_ms) in
  let sum a = Array.fold_left ( +. ) 0. a in
  let warm =
    Array.of_list (List.concat_map (fun (r : Batch.routed) -> r.warm_ms) (Array.to_list results))
  in
  let first_pass (r : Batch.routed) = List.nth r.samples (List.length r.samples - 1) in
  let records = Array.to_list (Array.map (fun (r : Batch.routed) -> r.record) results) in
  let scale = host_scale () in
  let lat = Array.map (fun l -> l *. scale.wall) lat
  and warm = Array.map (fun l -> l *. scale.wall) warm in
  let e2e =
    [
      metric "setup_s" "s" (setup_s *. scale.wall);
      metric "compile_s" "s"
        (sum (per_request (fun s -> s.Batch.cpu_s)) *. scale.cpu);
      metric "throughput_rps" "1/s" (float_of_int ok /. (sum lat /. 1e3));
      pct "latency_p50_ms" lat 0.50;
      pct "latency_p95_ms" lat 0.95;
      pct "warm_latency_p50_ms" warm 0.50;
      pct "warm_latency_p99_ms" warm 0.99;
      pct "cold_latency_p50_ms" lat 0.50;
      pct "cold_latency_p99_ms" lat 0.99;
      metric "ok_ratio" "ratio" (ok /: attempted);
      metric "makespan_ratio_gm" "ratio"
        (geomean
           (List.map
              (fun (r : Report.Record.t) ->
                r.weighted_depth /: r.unrouted_weighted_depth)
              records));
      metric "swaps_total" "count"
        (float_of_int
           (List.fold_left (fun acc (r : Report.Record.t) -> acc + r.swaps) 0 records));
      metric "alloc_mwords" "Mwords"
        (Array.fold_left (fun acc r -> acc +. (first_pass r).Batch.words) 0. results /. 1e6);
      metric "peak_rss_mb" "MB" rss;
    ]
  in
  let layers =
    if not traced then []
    else
      let couplings =
        Array.to_list results
        |> List.map (fun (r : Batch.routed) ->
               Arch.Maqam.coupling (Result.get_ok r.prep.spec).maqam)
        |> List.sort_uniq (fun a b ->
               compare (Arch.Coupling.name a) (Arch.Coupling.name b))
      in
      Batch.build_devices couplings;
      let tbl = Span.layers () in
      let req = Span.layer tbl "request" in
      let bytes_of l = List.fold_left (fun acc s -> acc + String.length s) 0 l in
      let replies =
        Array.to_list
          (Array.map
             (fun (r : Batch.routed) ->
               Service.Ops.route_frame
                 (Service.Ops.item_ok ~fingerprint:r.fp r.record))
             results)
      in
      layer_metrics ~tbl ~roots:[ "request" ] ~stats ~couplings
        ~parse_span:"qasm.parse" ~parse_errors:!parse_errors ~cache
        ~report_bytes:(bytes_of (List.map (fun (r : Batch.routed) -> r.bytes) (Array.to_list results)))
        ~unattributed_ms:(req.self_s /. float_of_int req.calls *. 1e3)
        ~svc:
          [
            n_routed; attempted - n_routed; 0; 0; bytes_of (Array.to_list lines);
            bytes_of replies;
          ]
        ()
  in
  {
    e2e;
    layers;
    attempted;
    failed = attempted - ok;
    problems = List.rev !problems;
    scale;
  }

(* ------------------------------------------------------- daemon runs *)

let run_dir = "_perfbench"

let stats_counter stats path =
  match Option.bind (record_field stats path) Json.to_int_opt with
  | Some n -> n
  | None -> failwith ("stats reply lacks " ^ String.concat "." path)

(* The traced in-process replay of the daemon's exact request list:
   Protocol.parse_frame -> Engine.spec_of_route_req -> Engine.fingerprint
   -> Cache.find/add -> route -> Ops.route_frame, each call a span. *)
let replay ~warm_lines ~(kinds : Inputs.kind array) ~lines ~texts =
  let cache = Cache.create ~max_entries:1024 () in
  let stats = Codar.Stats.create () in
  let records = Hashtbl.create 1024 in
  let serve ~root ~req line =
    Span.with_ ~req root (fun () ->
        match Span.with_ "service.frame_parse" (fun () -> Service.Protocol.parse_frame line) with
        | Ok (id, Service.Protocol.Route rr) -> (
          match Span.with_ "service.spec" (fun () -> Engine.spec_of_route_req rr) with
          | Error msg -> Service.Protocol.error_frame ?id Bad_request msg
          | Ok spec ->
            let fp = Span.with_ "cache.fingerprint" (fun () -> Engine.fingerprint spec) in
            let outcome =
              match Span.with_ "cache.lookup" (fun () -> Cache.find cache fp) with
              | Some r -> Ok r
              | None -> (
                match Batch.route_split ~stats spec with
                | (r, _) as routed ->
                  Span.with_ "cache.insert" (fun () -> Cache.add cache fp r);
                  Hashtbl.replace records line (Ok routed);
                  Ok r
                | exception e ->
                  Hashtbl.replace records line (Error e);
                  Error (Printexc.to_string e))
            in
            Span.with_ "report" (fun () ->
                Service.Ops.route_frame ?id (Service.Ops.outcome_item ~fp outcome)))
        | Ok _ | Error _ -> "bad frame")
  in
  Span.enabled := false;
  Array.iter (fun l -> ignore (serve ~root:"setup.request" ~req:(-1) l)) warm_lines;
  Span.enabled := true;
  let replies =
    Array.mapi
      (fun i line ->
        Batch.probe ~text:texts.(i) line;
        let root = if Inputs.is_cold kinds.(i) then "cold.request" else "warm.request" in
        serve ~root ~req:i line)
      lines
  in
  (cache, stats, records, replies)

let run_daemon ~cli ~seed ~colds ~traced =
  let warm = Inputs.warm_set () in
  let n_warm = Array.length warm in
  let kinds = Inputs.daemon_mixed ~seed ~colds ~n_warm in
  let warm_lines = Array.map Inputs.frame warm in
  let lines =
    Array.map
      (function Inputs.Warm k -> warm_lines.(k) | Cold r -> Inputs.frame r)
      kinds
  in
  let texts =
    Array.map
      (function Inputs.Warm k -> warm.(k).text | Cold r -> r.Inputs.text)
      kinds
  in
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let live = ref [] in
  (* a set-up's time, scaled by the kernel samples on either side *)
  let setup k =
    let k0 = time_alloc_kernel () in
    let t0 = now_ns () in
    let d =
      Daemon.spawn ~cli
        ~sock:(Printf.sprintf "%s/d%d-%d.sock" run_dir (Unix.getpid ()) k)
    in
    live := d :: !live;
    let c = Daemon.connect d in
    let refs = Array.map (Daemon.request c) warm_lines in
    Daemon.close c;
    let s = secs_since t0 in
    (d, refs, s *. (alloc_scale k0 (time_alloc_kernel ())).wall)
  in
  let reap d = live := List.filter (fun x -> x != d) !live in
  Fun.protect ~finally:(fun () -> List.iter Daemon.kill !live) @@ fun () ->
  let setup_only k =
    let d, _, s = setup k in
    let w = Daemon.shutdown d in
    reap d;
    (s, w)
  in
  let before = List.init (setup_before - 1) (fun k -> setup_only (k + 1)) in
  let d, refs, s = setup 0 in
  (* the measured phase in [segments] segments of an even number of
     requests, so both connections get the same share of each; between
     two of them the daemon is idle: the end of one (wall clock, daemon
     CPU), a kernel sample, the start of the next *)
  let n = Array.length lines in
  let every = 2 * max 1 (n / (2 * segments)) in
  let segs = (n + every - 1) / every in
  let ends = Array.make (segs + 1) (0L, 0.) and starts = Array.make (segs + 1) (0L, 0.) in
  let kernels = Array.make (segs + 1) (0., 0.) in
  let replies, lat =
    Daemon.drive d ~n_conns:2 ~every
      ~idle:(fun k ->
        ends.(k) <- (now_ns (), proc_cpu_s d.pid);
        kernels.(k) <- time_alloc_kernel ();
        starts.(k) <- (now_ns (), proc_cpu_s d.pid))
      lines
  in
  let stats =
    let c = Daemon.connect d in
    let s = Daemon.request c {|{"op":"stats"}|} in
    Daemon.close c;
    s
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  let measured_words = Daemon.shutdown d in
  reap d;
  let after =
    List.init (setup_reps - setup_before) (fun k -> setup_only (setup_before + k))
  in
  let setup_s = median (s :: List.map fst (before @ after)) in
  let words = measured_words -. median (List.map snd (before @ after)) in
  (* off the clock from here *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun k r -> if not (reply_ok r) then problem "set-up reply for %s failed: %s" warm.(k).name r)
    refs;
  let n = Array.length lines in
  let ok = Array.map reply_ok replies in
  let cold_idx =
    List.filter (fun i -> Inputs.is_cold kinds.(i)) (List.init n Fun.id)
  in
  let mism = ref 0 in
  Array.iteri
    (fun i reply ->
      match kinds.(i) with
      | Inputs.Warm k ->
        if not (String.equal reply refs.(k)) then begin
          ok.(i) <- false;
          incr mism
        end
      | Cold _ -> ())
    replies;
  if !mism > 0 then problem "%d warm replies differ from their set-up reply" !mism;
  (* every failed cold, and a seeded sample of the others, against
     Engine.route; a cold the program cannot route is a counted failure *)
  let st = Inputs.rng ~seed 4 in
  let route_failed = ref 0 in
  List.iter
    (fun i ->
      if (not ok.(i)) || Random.State.int st 20 = 0 then
        match cold_matches lines.(i) replies.(i) with
        | Ok `Routed -> ()
        | Ok `Failed -> incr route_failed
        | Error msg ->
          ok.(i) <- false;
          problem "cold request %d: %s" i msg)
    cold_idx;
  let errs = Array.fold_left (fun acc o -> if o then acc else acc + 1) 0 ok in
  (* the daemon's cache counters follow from the list: warm requests hit,
     colds are distinct and miss, and the LRU evicts only colds *)
  let n_colds = List.length cold_idx in
  let stored = n_warm + n_colds - !route_failed in
  let expect name got want =
    if got <> want then problem "%s = %d, expected %d" name got want
  in
  let cache_hits = stats_counter stats [ "cache"; "hits" ] in
  let cache_misses = stats_counter stats [ "cache"; "misses" ] in
  let cache_ins = stats_counter stats [ "cache"; "insertions" ] in
  let cache_ev = stats_counter stats [ "cache"; "evictions" ] in
  expect "daemon cache hits" cache_hits (n - n_colds);
  expect "daemon cache misses" cache_misses (n_warm + n_colds);
  expect "daemon cache insertions" cache_ins stored;
  expect "daemon cache evictions" cache_ev (max 0 (stored - 1024));
  let distinct =
    Array.to_list refs @ List.map (fun i -> replies.(i)) cold_idx
    |> List.filter reply_ok
  in
  let field r k =
    Option.get (Option.bind (record_field r [ "record"; k ]) Json.to_int_opt)
  in
  (* the kernel runs in this process, between segments: the daemon is
     taken to share the host's speed of that moment *)
  let seg_scale = Array.init segs (fun k -> alloc_scale kernels.(k) kernels.(k + 1)) in
  let seg_sum f =
    let acc = ref 0. in
    for k = 0 to segs - 1 do
      let (t0, c0), (t1, c1) = (starts.(k), ends.(k + 1)) in
      acc := !acc +. f seg_scale.(k) (Int64.to_float (Int64.sub t1 t0) /. 1e9) (c1 -. c0)
    done;
    !acc
  in
  (* a failed request counts as an infinite latency *)
  let all_lat = Array.mapi (fun i l -> if ok.(i) then l else infinity) lat in
  let scaled_lat = Array.mapi (fun i l -> l *. seg_scale.(i / every).wall) all_lat in
  let pick a cold =
    Array.of_list
      (List.filter_map
         (fun i -> if Inputs.is_cold kinds.(i) = cold then Some a.(i) else None)
         (List.init n Fun.id))
  in
  let warm_lat = pick all_lat false and cold_lat = pick all_lat true in
  let n_ok = n - errs in
  let scale = median_scale (Array.to_list seg_scale) in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "compile_s" "s" (seg_sum (fun sc _ cpu -> cpu *. sc.cpu));
      metric "throughput_rps" "1/s"
        (float_of_int n_ok /. seg_sum (fun sc wall _ -> wall *. sc.wall));
      pct "latency_p50_ms" scaled_lat 0.50;
      pct "latency_p95_ms" scaled_lat 0.95;
      pct "warm_latency_p50_ms" (pick scaled_lat false) 0.50;
      pct "warm_latency_p99_ms" (pick scaled_lat false) 0.99;
      pct "cold_latency_p50_ms" (pick scaled_lat true) 0.50;
      pct "cold_latency_p99_ms" (pick scaled_lat true) 0.99;
      metric "ok_ratio" "ratio" (n_ok /: n);
      metric "makespan_ratio_gm" "ratio"
        (geomean
           (List.map
              (fun r -> field r "weighted_depth" /: field r "unrouted_weighted_depth")
              distinct));
      metric "swaps_total" "count"
        (float_of_int (List.fold_left (fun acc r -> acc + field r "swaps") 0 distinct));
      metric "alloc_mwords" "Mwords" (words /. 1e6);
      metric "peak_rss_mb" "MB" rss;
    ]
  in
  let layers =
    if not traced then []
    else begin
      let cache, stats_r, records, rep_replies = replay ~warm_lines ~kinds ~lines ~texts in
      let c = Cache.counters cache in
      expect "replay hits vs daemon" c.hits cache_hits;
      expect "replay misses vs daemon" c.misses cache_misses;
      expect "replay insertions vs daemon" c.insertions cache_ins;
      expect "replay evictions vs daemon" c.evictions cache_ev;
      (* every cold against the replay's split route *)
      List.iter
        (fun i ->
          let route _ =
            match Hashtbl.find records lines.(i) with
            | Ok routed -> routed
            | Error e -> raise e
          in
          match cold_matches ~route lines.(i) replies.(i) with
          | Ok (`Routed | `Failed) -> ()
          | Error msg -> problem "cold request %d (replay): %s" i msg)
        cold_idx;
      let couplings =
        List.filter_map Arch.Devices.by_name [ "melbourne"; "tokyo"; "6x6"; "sycamore" ]
      in
      Batch.build_devices couplings;
      let tbl = Span.layers () in
      let live_warm_p50 = fst (percentile warm_lat 0.5) in
      let rep_warm_p50 = median (Span.durations "warm.request") *. 1e3 in
      let rep_cold_p50 = median (Span.durations "cold.request") *. 1e3 in
      Fmt.pr "in-process pipeline p50: warm %.4f ms, cold %.4f ms; live minus in-process: warm %.4f ms, cold %.4f ms@."
        rep_warm_p50 rep_cold_p50 (live_warm_p50 -. rep_warm_p50)
        (fst (percentile cold_lat 0.5) -. rep_cold_p50);
      let svc k = stats_counter stats [ "service"; k ] in
      layer_metrics ~tbl ~roots:[ "warm.request"; "cold.request" ] ~stats:stats_r
        ~couplings ~parse_span:"qasm.probe" ~parse_errors:0 ~cache
        ~report_bytes:(Array.fold_left (fun acc s -> acc + String.length s) 0 rep_replies)
        ~unattributed_ms:(live_warm_p50 -. rep_warm_p50)
        ~svc:(List.map svc [ "routes_computed"; "responses_err"; "overloads"; "coalesced"; "bytes_in"; "bytes_out" ])
        ()
    end
  in
  { e2e; layers; attempted = n; failed = errs; problems = List.rev !problems; scale }

(* ------------------------------------------------------------ driver *)

let workloads = [ "paper-batch"; "large-route"; "daemon-mixed" ]

let run_workload ~cli ~workload ~seed ~seconds ~traced ~short =
  match workload with
  | "paper-batch" ->
    run_batch ~reqs:(Inputs.paper_batch ~short) ~reps:(fun _ -> 1) ~traced
  | "large-route" ->
    (* a short route's time is the fastest of seven runs some seconds
       apart, which one slow moment of the host would otherwise decide;
       the 20k-gate routes, seconds each, run once *)
    let reps (p : Batch.prepared) =
      match p.spec with
      | Ok spec when Qc.Circuit.length spec.circuit >= 10_000 -> 1
      | _ -> 7
    in
    run_batch ~reqs:(Inputs.large_route ~short) ~reps ~traced
  | "daemon-mixed" ->
    (* at least 1000 colds, so the cache fills and every further cold
       evicts; --seconds scales the list, never a time window *)
    let colds = if short then 40 else max 1000 (100 * seconds) in
    run_daemon ~cli ~seed ~colds ~traced
  | w -> failwith ("unknown workload " ^ w)

(* Run this executable again with [args]; its standard output and status. *)
let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let out = Daemon.read_all r in
  let _, status = Unix.waitpid [] pid in
  (String.split_on_char '\n' out |> List.filter (( <> ) ""), status)

let last_json lines =
  match List.rev lines with
  | last :: _ -> (
    match Json.parse last with Ok j -> Some j | Error _ -> None)
  | [] -> None

let json_metrics j =
  match Json.member "metrics" j with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (k, v) ->
        match
          ( Option.bind (Json.member "value" v) Json.to_float_opt,
            Option.bind (Json.member "unit" v) Json.to_string_opt )
        with
        | Some value, Some u -> Some (metric k u value)
        | _ -> None)
      fields
  | _ -> []

let finite ms = List.for_all (fun m -> Float.is_finite m.value) ms

let print_problems o =
  List.iter (fun p -> Printf.eprintf "check failed: %s\n%!" p) o.problems

let child_args ~workload ~seed ~seconds ~trace ~cli ~short =
  [
    "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
    string_of_int seconds; "--trace"; trace; "--cli"; cli;
  ]
  @ if short then [ "--short" ] else []

(* Where an untraced run leaves its output, for the traced run's
   overhead comparison at the same seed. *)
let saved_output ~workload ~seed ~seconds ~short =
  Printf.sprintf "%s/untraced-%s-%d-%d%s.txt" run_dir workload seed seconds
    (if short then "-short" else "")

let main_untraced ~cli ~workload ~seed ~seconds ~short =
  let o = run_workload ~cli ~workload ~seed ~seconds ~traced:false ~short in
  let row = row ~workload ~label:"untraced" o.e2e in
  print_endline row;
  Fmt.pr
    "host scale %s: cpu %.4f wall %.4f (the time metrics above are raw \
     times x these)@."
    workload o.scale.cpu o.scale.wall;
  print_problems o;
  let correct = o.problems = [] && finite o.e2e in
  let result = result_line ~correct ~attempted:o.attempted ~failed:o.failed o.e2e in
  if correct then begin
    if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
    Out_channel.with_open_bin (saved_output ~workload ~seed ~seconds ~short)
      (fun oc -> output_string oc (row ^ "\n" ^ result ^ "\n"))
  end;
  print_endline result;
  if correct then 0 else 1

(* The traced mode runs the workload with spans on. The untraced numbers
   for the overhead comparison come from an earlier untraced run at the
   same seed in this checkout (running both here would double the run,
   past the time one run may take). *)
let main_traced ~cli ~workload ~seed ~seconds ~short =
  let saved = saved_output ~workload ~seed ~seconds ~short in
  let lines =
    if Sys.file_exists saved then
      String.split_on_char '\n' (read_file saved) |> List.filter (( <> ) "")
    else []
  in
  let untraced = Option.map json_metrics (last_json lines) in
  List.iter print_endline
    (List.filter (fun l -> String.length l > 0 && l.[0] <> '{') lines);
  let o = run_workload ~cli ~workload ~seed ~seconds ~traced:true ~short in
  print_row ~label:"traced" ~workload o.e2e;
  Fmt.pr "host scale %s (traced): cpu %.4f wall %.4f@." workload o.scale.cpu
    o.scale.wall;
  (match untraced with
  | Some base ->
    Fmt.pr "tracing overhead on %s (traced vs untraced, same seed):@." workload;
    List.iter
      (fun t ->
        match List.find_opt (fun b -> b.name = t.name) base with
        | Some b ->
          Fmt.pr "  %-22s %14.6g %14.6g %8.2f%%@." t.name b.value t.value
            (100. *. ((t.value /. b.value) -. 1.))
        | None -> ())
      o.e2e
  | None ->
    Fmt.pr
      "no untraced run of %s at seed %d in this checkout: run it with \
       --trace 0 first for the tracing overhead@."
      workload seed);
  Span.print_layers (Span.layers ());
  print_row ~label:"layers" ~workload o.layers;
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let dump = Printf.sprintf "%s/spans-%s-%d.jsonl" run_dir workload seed in
  Span.dump dump;
  Fmt.pr "spans written to %s@." dump;
  print_problems o;
  let correct = o.problems = [] && finite o.layers in
  print_endline
    (result_line ~correct ~attempted:o.attempted ~failed:o.failed o.layers);
  if correct then 0 else 1

(* Every workload in its own child process, one row each. *)
let main_all ~cli ~seed ~seconds ~trace ~short =
  let results =
    List.map
      (fun workload ->
        if trace = "1" then
          ignore (run_child (child_args ~workload ~seed ~seconds ~trace:"0" ~cli ~short));
        let lines, status =
          run_child (child_args ~workload ~seed ~seconds ~trace ~cli ~short)
        in
        List.iter print_endline
          (List.filter (fun l -> String.length l > 0 && l.[0] <> '{') lines);
        (workload, last_json lines, status))
      workloads
  in
  let int k j = Option.value (Option.bind (Json.member k j) Json.to_int_opt) ~default:0 in
  let correct =
    List.for_all
      (fun (_, j, st) ->
        st = Unix.WEXITED 0
        && Option.bind j (Json.member "correct") = Some (Json.Bool true))
      results
  in
  let sum k = List.fold_left (fun acc (_, j, _) -> acc + Option.fold ~none:0 ~some:(int k) j) 0 results in
  let metrics =
    List.concat_map
      (fun (w, j, _) ->
        List.map
          (fun m -> { m with name = w ^ "." ^ m.name })
          (Option.fold ~none:[] ~some:json_metrics j))
      results
  in
  print_endline
    (result_line ~correct ~attempted:(sum "attempted") ~failed:(sum "failed")
       metrics);
  if correct then 0 else 1

(* ---------------------------------------------------------- self-test *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The metric names and units BENCHMARK.json declares, by section. *)
let spec_metrics path section =
  match Json.parse (read_file path) with
  | Error e -> failwith ("bad " ^ path ^ ": " ^ e)
  | Ok j ->
    Option.value ~default:[] (Option.bind (Json.member section j) Json.to_list_opt)
    |> List.map (fun m ->
           ( Option.get (Option.bind (Json.member "name" m) Json.to_string_opt),
             Option.get (Option.bind (Json.member "unit" m) Json.to_string_opt) ))

(* The output checks must reject a mutated reply and a mutated route. *)
let mutation_checks fail =
  let r : Inputs.req =
    {
      name = "qft_6";
      arch = "tokyo";
      durations = "sc";
      placement = "sabre";
      text = Inputs.qasm (Inputs.suite_circuit "qft_6");
    }
  in
  let line = Inputs.frame r in
  let spec =
    match Service.Protocol.parse_frame line with
    | Ok (_, Service.Protocol.Route rr) -> Result.get_ok (Engine.spec_of_route_req rr)
    | _ -> failwith "selftest: bad frame"
  in
  let record, routed = Engine.route spec in
  let reply =
    Service.Ops.route_frame
      (Service.Ops.item_ok ~fingerprint:(Engine.fingerprint spec) record)
  in
  if cold_matches line reply <> Ok `Routed then fail "a correct cold reply is rejected";
  let key = Printf.sprintf {|"swaps":%d|} record.swaps in
  let mutated =
    let n = String.length key in
    let rec find i = if String.sub reply i n = key then i else find (i + 1) in
    let i = find 0 in
    String.sub reply 0 i
    ^ Printf.sprintf {|"swaps":%d|} (record.swaps + 1)
    ^ String.sub reply (i + n) (String.length reply - i - n)
  in
  if Result.is_ok (cold_matches line mutated) then fail "a mutated cold reply is accepted";
  let prep : Batch.prepared = { req = r; spec = Ok spec } in
  let as_routed routed : Batch.routed =
    {
      prep;
      record;
      routed;
      bytes = "";
      fp = "";
      samples = [];
      warm_ms = [];
      mismatches = 0;
    }
  in
  if Batch.verify (as_routed routed) <> Ok () then fail "a correct route is rejected";
  let dropped =
    let rec drop = function
      | (e : Schedule.Routed.event) :: rest when not e.inserted -> rest
      | e :: rest -> e :: drop rest
      | [] -> []
    in
    { routed with events = drop routed.events }
  in
  if Batch.verify (as_routed dropped) = Ok () then
    fail "a route missing a program gate is accepted"

let selftest ~cli ~spec =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let e2e_spec, layer_spec =
    match spec with
    | Some path -> (spec_metrics path "end_to_end", spec_metrics path "per_layer")
    | None -> (e2e_units, [])
  in
  if e2e_spec <> e2e_units then fail "BENCHMARK.json end_to_end differs from e2e_units";
  let run workload trace =
    let lines, status =
      run_child (child_args ~workload ~seed:7 ~seconds:1 ~trace ~cli ~short:true)
    in
    if status <> Unix.WEXITED 0 then fail "%s --trace %s exited abnormally" workload trace;
    let j = last_json lines in
    if Option.bind j (Json.member "correct") <> Some (Json.Bool true) then
      fail "%s --trace %s: result not correct" workload trace;
    (lines, Option.fold ~none:[] ~some:json_metrics j)
  in
  List.iter
    (fun workload ->
      let (lines, a), (_, b) = (run workload "0", run workload "0") in
      (* every metric by name and unit, percentiles with their counts *)
      let row =
        Option.value ~default:""
          (List.find_opt (fun l -> contains l ("untraced " ^ workload ^ ":")) lines)
      in
      List.iter
        (fun (name, u) ->
          (match List.find_opt (fun m -> m.name = name) a with
          | Some m when m.unit_ = u -> ()
          | _ -> fail "%s: %s missing or not in %s" workload name u);
          let field =
            List.find_opt
              (fun f -> contains f (name ^ "="))
              (String.split_on_char ';' row)
          in
          match field with
          | None -> fail "%s: row lacks %s" workload name
          | Some f ->
            if not (contains f (" " ^ u)) then fail "%s: row shows %s without its unit" workload name;
            if contains name "_p" && not (contains f "(n=") then
              fail "%s: percentile %s without its sample count" workload name)
        e2e_units;
      (* the deterministic metrics repeat exactly at one seed *)
      let same name =
        let v l = Option.map (fun m -> m.value) (List.find_opt (fun m -> m.name = name) l) in
        if v a <> v b || v a = None then fail "%s: %s differs between two runs" workload name
      in
      List.iter same [ "swaps_total"; "makespan_ratio_gm"; "ok_ratio" ];
      if workload <> "daemon-mixed" then same "alloc_mwords";
      (* the traced run reports every per-layer metric *)
      let _, layers = run workload "1" in
      List.iter
        (fun (name, u) ->
          match List.find_opt (fun m -> m.name = name) layers with
          | Some m when m.unit_ = u -> ()
          | _ -> fail "%s traced: %s missing or not in %s" workload name u)
        layer_spec)
    workloads;
  mutation_checks (fun s -> fail "%s" s);
  match List.rev !failures with
  | [] ->
    print_endline "perfbench selftest: ok";
    0
  | l ->
    List.iter (Printf.eprintf "perfbench selftest: %s\n") l;
    1

(* -------------------------------------------------------------- main *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let get k ~default = Option.value (opt k args) ~default in
  let cli = get "--cli" ~default:"_build/default/bin/codar_cli.exe" in
  let code =
    match args with
    | "selftest" :: _ -> selftest ~cli ~spec:(opt "--spec" args)
    | _ -> (
      let workload = get "--workload" ~default:"" in
      let seed = int_of_string (get "--seed" ~default:"1") in
      let seconds = int_of_string (get "--seconds" ~default:"10") in
      let trace = get "--trace" ~default:"0" in
      let short = List.mem "--short" args in
      if not (Sys.file_exists cli) then begin
        prerr_endline ("perfbench: no CLI binary at " ^ cli);
        2
      end
      else
        match (workload, trace) with
        | "all", ("0" | "1") -> main_all ~cli ~seed ~seconds ~trace ~short
        | w, "0" when List.mem w workloads ->
          main_untraced ~cli ~workload ~seed ~seconds ~short
        | w, "1" when List.mem w workloads ->
          main_traced ~cli ~workload ~seed ~seconds ~short
        | _ ->
          prerr_endline
            "usage: bench.exe --workload paper-batch|large-route|daemon-mixed|all \
             --seed N --seconds S --trace 0|1 --cli PATH [--short]\n\
            \       bench.exe selftest --cli PATH [--spec BENCHMARK.json]";
          2)
  in
  exit code
