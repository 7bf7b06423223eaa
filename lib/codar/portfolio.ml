type metric = Makespan | Esp | Depth

let metric_name = function
  | Makespan -> "makespan"
  | Esp -> "esp"
  | Depth -> "depth"

let metric_names = [ "makespan"; "esp"; "depth" ]

let metric_of_name = function
  | "makespan" -> Some Makespan
  | "esp" -> Some Esp
  | "depth" -> Some Depth
  | _ -> None

type outcome = {
  routed : Schedule.Routed.t;
  winner : int;
  objectives : Objective.t array;
  metric : metric;
  scores : int array;
  metric_scores : float array;
}

let restart_layout ~seed ~initial ~n_logical ~n_physical ?refine k =
  if k = 0 then initial
  else
    (* seeded by restart index only: bit-identical for any pool size *)
    let rng = Random.State.make [| 0x0c0da5; seed; k |] in
    let layout = Arch.Layout.random rng ~n_logical ~n_physical in
    match refine with None -> layout | Some f -> f layout

(* Selection-metric value of one restart. Makespan and depth are
   minimised, ESP maximised; [better] folds both into one order with
   lowest-index tie-breaks, so the winner stays deterministic for every
   pool size and member mix. *)
let metric_value ~metric ~calibration ~n_physical (r : Schedule.Routed.t) =
  match metric with
  | Makespan -> float_of_int r.Schedule.Routed.makespan
  | Depth ->
    float_of_int (Schedule.Routed.raw_depth ~n_physical r)
  | Esp -> (
    match calibration with
    | Some c -> Sim.Reliability.estimated_success ~calibration:c ~n_physical r
    | None ->
      invalid_arg
        "Portfolio.run: esp selection metric needs a calibrated duration \
         profile (superconducting, ion-trap or neutral-atom)")

let better ~metric a b =
  match metric with Esp -> a > b | Makespan | Depth -> a < b

let run ?pool ?(config = Remapper.default_config) ?(restarts = 8) ?(seed = 0)
    ?refine ?objectives ?(metric = Makespan) ~maqam ~initial circuit =
  if restarts < 1 then invalid_arg "Portfolio.run: restarts must be >= 1";
  let objs =
    match objectives with
    | None | Some [] -> [| config.Remapper.objective |]
    | Some l -> Array.of_list l
  in
  let n_objs = Array.length objs in
  let n_logical = Qc.Circuit.n_qubits circuit in
  let n_physical = Arch.Maqam.n_qubits maqam in
  let calibration = Arch.Calibration.for_durations (Arch.Maqam.durations maqam) in
  (* fail fast, before routing [restarts] layouts *)
  (match metric with
  | Esp when calibration = None ->
    invalid_arg
      "Portfolio.run: esp selection metric needs a calibrated duration \
       profile (superconducting, ion-trap or neutral-atom)"
  | _ -> ());
  (* restart k routes under objective k mod |objs|: restart 0 always pairs
     the caller's initial layout with the first objective — the single-shot
     baseline the portfolio can never do worse than (under the metric) *)
  let objective_of k = objs.(k mod n_objs) in
  let route k () =
    let layout =
      restart_layout ~seed ~initial ~n_logical ~n_physical ?refine k
    in
    Remapper.run
      ~config:{ config with Remapper.objective = objective_of k }
      ~maqam ~initial:layout circuit
  in
  let tasks = Array.init restarts (fun k -> k) in
  let results =
    match pool with
    | Some p -> Pool.map p (fun k _ -> route k ()) tasks
    | None -> Array.map (fun k -> route k ()) tasks
  in
  let scores =
    Array.map (fun (r : Schedule.Routed.t) -> r.Schedule.Routed.makespan) results
  in
  let metric_scores =
    Array.map (metric_value ~metric ~calibration ~n_physical) results
  in
  let winner = ref 0 in
  Array.iteri
    (fun k s -> if better ~metric s metric_scores.(!winner) then winner := k)
    metric_scores;
  {
    routed = results.(!winner);
    winner = !winner;
    objectives = Array.init restarts objective_of;
    metric;
    scores;
    metric_scores;
  }
