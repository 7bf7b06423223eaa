(* Determinism suite for the Domain pool and the routing portfolio.

   The contract under test (docs/PARALLEL.md): for ANY job count, Pool
   batches produce identical results in identical order, reductions fold
   identically, exceptions propagate as the lowest-indexed failure, and a
   failing batch leaves the pool usable. On top of that, the two parallel
   consumers — routing fan-outs and Codar.Portfolio — must be bit-identical
   between jobs=1 and jobs=4. *)

let sc = Arch.Durations.superconducting
let tokyo = Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc

let pp_event ppf (e : Schedule.Routed.event) =
  Fmt.pf ppf "%s@%d+%d%s"
    (Qc.Gate.to_string e.gate)
    e.start e.duration
    (if e.inserted then "*" else "")

let event_eq (a : Schedule.Routed.event) (b : Schedule.Routed.event) =
  Qc.Gate.equal a.gate b.gate
  && a.start = b.start && a.duration = b.duration && a.inserted = b.inserted

let event_t = Alcotest.testable pp_event event_eq

(* ------------------------------------------------------- pool primitives *)

let test_map_matches_sequential () =
  let tasks = Array.init 37 (fun i -> i) in
  let f i x = (i * 1_000) + (x * x) in
  let expected = Array.mapi f tasks in
  List.iter
    (fun jobs ->
      let got = Pool.with_pool ~jobs (fun p -> Pool.map p f tasks) in
      Alcotest.(check (array int))
        (Fmt.str "map jobs=%d = sequential" jobs)
        expected got)
    [ 1; 2; 4; 7 ]

(* ------------------------------------------- parallel routing fan-outs *)

let routing_subset = [ "qft_4"; "qft_8"; "ghz_8"; "tof_8"; "dj_10" ]

let circuits =
  lazy
    (List.filter_map
       (fun n ->
         Option.map
           (fun (e : Workloads.Suite.entry) -> (n, Lazy.force e.circuit))
           (Workloads.Suite.find n))
       routing_subset)

let route_events c =
  let initial = Sabre.Initial_mapping.reverse_traversal ~maqam:tokyo c in
  (Codar.Remapper.run ~maqam:tokyo ~initial c).Schedule.Routed.events

let test_routing_identical_across_jobs () =
  let circuits = Array.of_list (Lazy.force circuits) in
  Alcotest.(check int) "subset loaded" 5 (Array.length circuits);
  let run jobs =
    Pool.with_pool ~jobs (fun p ->
        Pool.map p (fun _ (_, c) -> route_events c) circuits)
  in
  let seq = run 1 and par = run 4 in
  Array.iteri
    (fun i (name, _) ->
      Alcotest.(check (list event_t))
        (name ^ ": routed events jobs=1 = jobs=4")
        seq.(i) par.(i))
    circuits

let test_portfolio_identical_across_jobs () =
  List.iter
    (fun (name, c) ->
      let initial = Sabre.Initial_mapping.reverse_traversal ~maqam:tokyo c in
      let refine layout =
        Sabre.Initial_mapping.reverse_traversal ~initial:layout ~maqam:tokyo c
      in
      let run jobs =
        Pool.with_pool ~jobs (fun p ->
            Codar.Portfolio.run ~pool:p ~restarts:6 ~seed:11 ~refine
              ~maqam:tokyo ~initial c)
      in
      let a = run 1 and b = run 4 in
      Alcotest.(check int)
        (name ^ ": portfolio winner jobs=1 = jobs=4")
        a.Codar.Portfolio.winner b.Codar.Portfolio.winner;
      Alcotest.(check (array int))
        (name ^ ": portfolio scores jobs=1 = jobs=4")
        a.Codar.Portfolio.scores b.Codar.Portfolio.scores;
      Alcotest.(check (list event_t))
        (name ^ ": winning route identical")
        (Schedule.Timeline.to_routed a.Codar.Portfolio.routed).events
        (Schedule.Timeline.to_routed b.Codar.Portfolio.routed).events;
      (* restart 0 is the baseline: the portfolio can never lose to it *)
      Alcotest.(check bool)
        (name ^ ": portfolio <= baseline") true
        (a.Codar.Portfolio.routed.Schedule.Timeline.makespan
        <= a.Codar.Portfolio.scores.(0)))
    (Lazy.force circuits)

(* --------------------------------------------------- qcheck stress tests *)

exception Boom of int

(* Long-lived pools shared by every qcheck iteration: hundreds of batches,
   including failing ones, through the same workers — the wedge detector. *)
let shared_pools = lazy (List.map (fun j -> (j, Pool.create ~jobs:j)) [ 1; 2; 4 ])

let pool_for jobs = List.assoc jobs (Lazy.force shared_pools)

let stress_gen =
  QCheck.Gen.(
    triple (oneofl [ 1; 2; 4 ]) (int_range 0 120) (int_range 0 200))

let prop_stress =
  QCheck.Test.make ~count:120
    ~name:"random batches: deterministic results, exceptions propagate, pool survives"
    (QCheck.make ~print:QCheck.Print.(triple int int int) stress_gen)
    (fun (jobs, n, salt) ->
      let pool = pool_for jobs in
      let tasks = Array.init n (fun i -> i) in
      (* every ~4th batch has failing tasks, at pseudo-random indices *)
      let fails i = n > 0 && salt mod 4 = 0 && (i + salt) mod 5 = 0 in
      let f i x =
        (* vary task cost so domains interleave unpredictably *)
        let spin = ref 0 in
        for k = 0 to (i + salt) mod 64 * 100 do
          spin := !spin + k
        done;
        if fails i then raise (Boom i);
        (x * x) + (salt mod 7) + (!spin * 0)
      in
      let expected_exn =
        let rec first i =
          if i >= n then None else if fails i then Some i else first (i + 1)
        in
        first 0
      in
      let got = try Ok (Pool.map pool f tasks) with Boom i -> Error i in
      let ok =
        match (expected_exn, got) with
        | None, Ok arr ->
          arr = Array.map (fun x -> (x * x) + (salt mod 7)) tasks
          && Array.length arr = n
        | Some i, Error j -> i = j
        | _ -> false
      in
      (* the pool must remain usable after any batch, failing or not *)
      let alive = Pool.map pool (fun i x -> i + x) (Array.init 5 Fun.id) in
      ok && alive = [| 0; 2; 4; 6; 8 |])

let () =
  Fun.protect
    ~finally:(fun () ->
      if Lazy.is_val shared_pools then
        List.iter (fun (_, p) -> Pool.shutdown p) (Lazy.force shared_pools))
    (fun () ->
      Alcotest.run "pool"
      [
        ( "primitives",
          [
            Alcotest.test_case "map = sequential, any jobs" `Quick
              test_map_matches_sequential;
          ] );
        ( "routing determinism",
          [
            Alcotest.test_case "routed events jobs=1 = jobs=4" `Quick
              test_routing_identical_across_jobs;
            Alcotest.test_case "portfolio winner jobs=1 = jobs=4" `Quick
              test_portfolio_identical_across_jobs;
          ] );
        ("stress", [ QCheck_alcotest.to_alcotest prop_stress ]);
      ])
