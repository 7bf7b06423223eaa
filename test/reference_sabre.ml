(* The pre-incremental SABRE router, kept verbatim as a test-only
   reference: it recomputes the front layer with [front_layer] on every
   step. test_sabre.ml asserts the production router in
   lib/sabre/router.ml yields identical layouts and gate lists, as
   [Reference_remapper] pins CODAR. Do not modernise this file — its value
   is that it does not change. *)

type config = {
  extended_size : int;
  extended_weight : float;
  decay_delta : float;
  decay_reset : int;
}

let default_config =
  {
    extended_size = 20;
    extended_weight = 0.5;
    decay_delta = 0.001;
    decay_reset = 5;
  }

exception Stuck of string

type state = {
  maqam : Arch.Maqam.t;
  config : config;
  dag : Qc.Dag.t;
  done_ : bool array;
  mutable n_done : int;
  mutable layout : Arch.Layout.t;
  mutable out_rev : (Qc.Gate.t * bool) list;
  decay : float array;
  mutable swaps_since_reset : int;
  mutable swap_budget : int;
}

(* Indices of gates whose predecessors are all marked done and which are
   not themselves done, in circuit order: SABRE's per-step front scan,
   which the production router replaced with pending-predecessor counts. *)
let front_layer d ~done_ =
  let n = Qc.Dag.n_nodes d in
  let rec collect i acc =
    if i >= n then List.rev acc
    else if
      (not done_.(i)) && List.for_all (fun p -> done_.(p)) (Qc.Dag.preds d i)
    then collect (i + 1) (i :: acc)
    else collect (i + 1) acc
  in
  collect 0 []

let front st = front_layer st.dag ~done_:st.done_

(* Extended set: the nearest not-yet-done successors of the front gates,
   breadth-first, capped at [extended_size] two-qubit gates. *)
let extended_set st f =
  let acc = ref [] and count = ref 0 in
  let queue = Queue.create () in
  List.iter (fun i -> List.iter (fun s -> Queue.add s queue) (Qc.Dag.succs st.dag i)) f;
  let visited = Hashtbl.create 32 in
  while (not (Queue.is_empty queue)) && !count < st.config.extended_size do
    let i = Queue.pop queue in
    if not (Hashtbl.mem visited i) then begin
      Hashtbl.replace visited i ();
      if not st.done_.(i) then begin
        (match Qc.Dag.gate st.dag i with
        | Qc.Gate.Two (_, q1, q2) ->
          acc := (q1, q2) :: !acc;
          incr count
        | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> ());
        List.iter (fun s -> Queue.add s queue) (Qc.Dag.succs st.dag i)
      end
    end
  done;
  !acc

let two_qubit_pairs st idxs =
  List.filter_map
    (fun i ->
      match Qc.Dag.gate st.dag i with
      | Qc.Gate.Two (_, q1, q2) -> Some (q1, q2)
      | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> None)
    idxs

let dist_after st (p1, p2) (q1, q2) =
  let moved p = if p = p1 then p2 else if p = p2 then p1 else p in
  let a = moved (Arch.Layout.phys_of_log st.layout q1) in
  let b = moved (Arch.Layout.phys_of_log st.layout q2) in
  Arch.Maqam.distance st.maqam a b

let score st fpairs epairs swap =
  let p1, p2 = swap in
  let sum pairs =
    List.fold_left (fun acc pr -> acc +. float_of_int (dist_after st swap pr)) 0. pairs
  in
  let nf = float_of_int (max 1 (List.length fpairs)) in
  let ne = float_of_int (max 1 (List.length epairs)) in
  let base =
    (sum fpairs /. nf) +. (st.config.extended_weight *. sum epairs /. ne)
  in
  Float.max st.decay.(p1) st.decay.(p2) *. base

let candidates st fpairs =
  let coupling = Arch.Maqam.coupling st.maqam in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (q1, q2) ->
      List.iter
        (fun q ->
          let p = Arch.Layout.phys_of_log st.layout q in
          List.iter
            (fun p' ->
              let e = (min p p', max p p') in
              if not (Hashtbl.mem seen e) then Hashtbl.replace seen e ())
            (Arch.Coupling.neighbors coupling p))
        [ q1; q2 ])
    fpairs;
  Hashtbl.fold (fun e () acc -> e :: acc) seen [] |> List.sort Stdlib.compare

let execute_gate st i =
  let g = Qc.Dag.gate st.dag i in
  st.out_rev <-
    (Qc.Gate.remap (Arch.Layout.phys_of_log st.layout) g, false) :: st.out_rev;
  st.done_.(i) <- true;
  st.n_done <- st.n_done + 1

let reset_decay st =
  Array.fill st.decay 0 (Array.length st.decay) 1.;
  st.swaps_since_reset <- 0

let apply_swap st (p1, p2) =
  if st.swap_budget <= 0 then
    raise (Stuck "SABRE: swap budget exhausted — unroutable input?");
  st.swap_budget <- st.swap_budget - 1;
  st.out_rev <- (Qc.Gate.swap p1 p2, true) :: st.out_rev;
  st.layout <- Arch.Layout.swap_physical st.layout p1 p2;
  st.decay.(p1) <- st.decay.(p1) +. st.config.decay_delta;
  st.decay.(p2) <- st.decay.(p2) +. st.config.decay_delta;
  st.swaps_since_reset <- st.swaps_since_reset + 1;
  if st.swaps_since_reset >= st.config.decay_reset then reset_decay st

let route_tagged ?(config = default_config) ~maqam ~initial circuit =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  if n_logical > n_physical then
    invalid_arg "Sabre.route_gates: circuit wider than device";
  if
    Arch.Layout.n_logical initial <> n_logical
    || Arch.Layout.n_physical initial <> n_physical
  then invalid_arg "Sabre.route_gates: layout size mismatch";
  let dag = Qc.Dag.of_circuit circuit in
  let n = Qc.Dag.n_nodes dag in
  let st =
    {
      maqam;
      config;
      dag;
      done_ = Array.make n false;
      n_done = 0;
      layout = initial;
      out_rev = [];
      decay = Array.make n_physical 1.;
      swaps_since_reset = 0;
      swap_budget = 10 * (n + 1) * (n_physical + 1);
    }
  in
  while st.n_done < n do
    let f = front st in
    let executable =
      List.filter (fun i -> Arch.Maqam.fits st.maqam st.layout (Qc.Dag.gate st.dag i)) f
    in
    if executable <> [] then begin
      List.iter (execute_gate st) executable;
      reset_decay st
    end
    else begin
      let fpairs = two_qubit_pairs st f in
      let epairs = extended_set st f in
      let cands = candidates st fpairs in
      match cands with
      | [] -> raise (Stuck "SABRE: no SWAP candidate — disconnected device?")
      | first :: rest ->
        let best =
          List.fold_left
            (fun (bs, be) e ->
              let s = score st fpairs epairs e in
              if s < bs then (s, e) else (bs, be))
            (score st fpairs epairs first, first)
            rest
        in
        apply_swap st (snd best)
    end
  done;
  (List.rev st.out_rev, st.layout)

let route_gates ?(config = default_config) ~maqam ~initial circuit =
  let tagged, final = route_tagged ~config ~maqam ~initial circuit in
  (List.map fst tagged, final)

let run ?(config = default_config) ~maqam ~initial circuit =
  let tagged, final = route_tagged ~config ~maqam ~initial circuit in
  Schedule.Timeline.to_routed
    (Schedule.Asap.timeline ~durations:(Arch.Maqam.durations maqam)
       ~n_physical:(Arch.Maqam.n_qubits maqam) ~initial ~final
       ~n_logical:(Qc.Circuit.n_qubits circuit) tagged)

(* Initial_mapping.reverse_traversal over this router, verbatim. *)
let reverse_traversal ?initial ?(iterations = 1)
    ?(config = default_config) ~maqam circuit =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  let reversed = Qc.Circuit.reverse circuit in
  let rec go layout k =
    if k = 0 then layout
    else
      let _, after_fwd = route_gates ~config ~maqam ~initial:layout circuit in
      let _, after_bwd =
        route_gates ~config ~maqam ~initial:after_fwd reversed
      in
      go after_bwd (k - 1)
  in
  let start =
    match initial with
    | Some l ->
      if
        Arch.Layout.n_logical l <> n_logical
        || Arch.Layout.n_physical l <> n_physical
      then invalid_arg "Initial_mapping.reverse_traversal: layout size mismatch";
      l
    | None -> Arch.Layout.identity ~n_logical ~n_physical
  in
  go start iterations
