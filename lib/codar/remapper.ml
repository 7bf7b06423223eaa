type config = {
  window : int;
  max_chain : int;
  use_commutativity : bool;
  use_fine : bool;
  objective : Objective.t;
}

let default_config =
  {
    window = 200;
    max_chain = 20;
    use_commutativity = true;
    use_fine = true;
    objective = Objective.makespan;
  }

exception Stuck of string

type state = {
  maqam : Arch.Maqam.t;
  config : config;
  stats : Stats.t;
  gates : Qc.Gate.t array;
  issued : bool array;
  blocked : int array;  (* per gate: the last [call] that found it blocked *)
  mutable call : int;  (* [issue_executable] calls so far *)
  cf : Cf_front.t;  (* incremental front over [gates]/[issued] *)
  scorer : Swap_scorer.t;  (* incremental SWAP candidate scoring *)
  mutable head : int;  (* first unissued index *)
  mutable remaining : int;
  locks : int array;  (* per physical qubit: busy until this time *)
  layout : Arch.Layout.t;  (* private copy, mutated in place on SWAPs *)
  mutable layout_version : int;  (* bumped on every SWAP *)
  mutable time : int;
  mutable events_rev : Schedule.Routed.event list;
  mutable swap_budget : int;
  (* Per-cycle derived caches, keyed by the physical identity of the cached
     front list (which is [==]-stable across Cf_front cache hits) and, for
     the physical resolution, the layout version. *)
  mutable pairs_cache : (int list * (int * int) list) option;
  mutable phys_cache : (int list * int * (int * int) list) option;
}

let cf_front st = Cf_front.front ~stats:st.stats st.cf st.head

let rec lock_free st = function
  | [] -> true
  | q :: rest ->
    st.locks.(Arch.Layout.phys_of_log st.layout q) <= st.time
    && lock_free st rest

(* Every qubit lock-free and, for a two-qubit gate, the pair adjacent. *)
let executable st g =
  match g with
  | Qc.Gate.One (_, q) | Qc.Gate.Measure (q, _) ->
    st.locks.(Arch.Layout.phys_of_log st.layout q) <= st.time
  | Qc.Gate.Two (_, q1, q2) ->
    let p1 = Arch.Layout.phys_of_log st.layout q1
    and p2 = Arch.Layout.phys_of_log st.layout q2 in
    st.locks.(p1) <= st.time
    && st.locks.(p2) <= st.time
    && Arch.Maqam.adjacent st.maqam p1 p2
  | Qc.Gate.Barrier qs -> lock_free st qs

let emit st ~inserted gate duration =
  st.events_rev <-
    { Schedule.Routed.gate; start = st.time; duration; inserted }
    :: st.events_rev;
  List.iter (fun p -> st.locks.(p) <- st.time + duration) (Qc.Gate.qubits gate)

let advance_head st =
  while st.head < Array.length st.gates && st.issued.(st.head) do
    st.head <- st.head + 1
  done

let issue_gate st i =
  let g = st.gates.(i) in
  let phys = Qc.Gate.remap (Arch.Layout.phys_of_log st.layout) g in
  emit st ~inserted:false phys (Arch.Maqam.duration st.maqam g);
  st.issued.(i) <- true;
  Cf_front.notify_issued st.cf i;
  st.remaining <- st.remaining - 1;
  st.stats.Stats.gates_issued <- st.stats.Stats.gates_issued + 1;
  advance_head st

(* Step 2: issue every directly executable CF gate at the current time.
   Issuing can unblock further CF gates (the issued gate leaves the
   sequence), so iterate to a fixpoint. Within one call locks only rise and
   the layout is fixed, so a gate found blocked stays blocked: it is
   stamped with the call and later passes test only gates new to the
   front. Returns whether anything issued. *)
let rec issue_pass st progressed = function
  | [] -> progressed
  | i :: rest ->
    if st.blocked.(i) = st.call then issue_pass st progressed rest
    else if executable st st.gates.(i) then begin
      issue_gate st i;
      issue_pass st true rest
    end
    else begin
      st.blocked.(i) <- st.call;
      issue_pass st progressed rest
    end

let rec issue_fixpoint st issued_any =
  if issue_pass st false (cf_front st) then issue_fixpoint st true
  else issued_any

let issue_executable st =
  st.call <- st.call + 1;
  issue_fixpoint st false

(* Logical operand pairs of CF two-qubit gates (for the heuristic), cached
   per front. *)
let cf_pairs st front =
  match st.pairs_cache with
  | Some (f, pairs) when f == front -> pairs
  | Some _ | None ->
    let pairs =
      List.filter_map
        (fun i ->
          match st.gates.(i) with
          | Qc.Gate.Two (_, q1, q2) -> Some (q1, q2)
          | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> None)
        front
    in
    st.pairs_cache <- Some (front, pairs);
    pairs

(* Physical endpoints of the CF pairs under the current layout, cached per
   (front, layout version) so SWAP scoring does not re-resolve the layout
   for every candidate edge. Pairs straddling disconnected components are a
   typed routing failure, not a distance-table sentinel leaking into the
   heuristic arithmetic. *)
let phys_pairs st front =
  match st.phys_cache with
  | Some (f, v, pp) when f == front && v = st.layout_version -> pp
  | Some _ | None ->
    let coupling = Arch.Maqam.coupling st.maqam in
    let pp =
      List.map
        (fun (q1, q2) ->
          let p1 = Arch.Layout.phys_of_log st.layout q1
          and p2 = Arch.Layout.phys_of_log st.layout q2 in
          if not (Arch.Coupling.reachable coupling p1 p2) then
            raise
              (Stuck
                 (Fmt.str
                    "two-qubit gate on physical qubits %d and %d, which lie \
                     in disconnected components of %s — unroutable placement"
                    p1 p2
                    (Arch.Coupling.name coupling)));
          (p1, p2))
        (cf_pairs st front)
    in
    st.stats.Stats.pair_resolutions <- st.stats.Stats.pair_resolutions + 1;
    st.phys_cache <- Some (front, st.layout_version, pp);
    pp

let issue_swap st (p1, p2) =
  if st.swap_budget <= 0 then
    raise
      (Stuck
         (Fmt.str
            "swap budget exhausted at t=%d with %d gates remaining — \
             unroutable input?"
            st.time st.remaining));
  st.swap_budget <- st.swap_budget - 1;
  emit st ~inserted:true (Qc.Gate.swap p1 p2)
    (Arch.Durations.swap (Arch.Maqam.durations st.maqam));
  Arch.Layout.swap_physical_inplace st.layout p1 p2;
  st.layout_version <- st.layout_version + 1;
  st.stats.Stats.swaps_inserted <- st.stats.Stats.swaps_inserted + 1

(* Step 3: repeatedly issue the best positive-priority SWAP. After each
   insertion the layout changed, so the candidate set must reflect the
   updated pair positions — an edge can become profitable (or a pending
   gate non-adjacent) only once an endpoint has moved. The scorer repairs
   exactly the candidates a committed SWAP touched instead of regenerating
   and re-scoring the whole set (the seed's O(candidates × pairs) per
   SWAP). Returns whether any SWAP issued. *)
let insert_swaps st =
  let front = cf_front st in
  Swap_scorer.begin_cycle st.scorer ~time:st.time
    ~phys_pairs:(phys_pairs st front);
  let issued_any = ref false in
  let issue_min = Swap_scorer.issue_min st.scorer in
  let rec loop () =
    match Swap_scorer.best st.scorer with
    | Some (e, basic) when basic > issue_min ->
      issue_swap st e;
      Swap_scorer.commit st.scorer e;
      issued_any := true;
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  !issued_any

(* Deadlock escape: every qubit is free yet nothing could be issued. Force
   the SWAP that most reduces the oldest pending two-qubit gate — one such
   SWAP always reduces it by one, guaranteeing progress — with the global
   priority as tiebreak. The scorer's cycle state is current: force is only
   reached when this cycle issued no gate and committed no SWAP. *)
let force_swap st =
  match Swap_scorer.force_best st.scorer with
  | Some e ->
    issue_swap st e;
    st.stats.Stats.forced_swaps <- st.stats.Stats.forced_swaps + 1
  | None ->
    raise
      (Stuck
         (Fmt.str
            "deadlock with no SWAP candidate at t=%d (%d gates left) — \
             disconnected device?"
            st.time st.remaining))

let next_unlock st =
  let next = ref max_int in
  for p = 0 to Array.length st.locks - 1 do
    let l = st.locks.(p) in
    if l > st.time && l < !next then next := l
  done;
  !next

let run ?(config = default_config) ?stats ~maqam ~initial circuit =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  if n_logical > n_physical then
    invalid_arg "Remapper.run: circuit wider than device";
  if
    Arch.Layout.n_logical initial <> n_logical
    || Arch.Layout.n_physical initial <> n_physical
  then invalid_arg "Remapper.run: layout size mismatch";
  let gates = Qc.Circuit.gate_array circuit in
  let issued = Array.make (Array.length gates) false in
  let commutes =
    if config.use_commutativity then Qc.Commute.memoised ()
    else fun _ _ -> false
  in
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let locks = Array.make n_physical 0 in
  let st =
    {
      maqam;
      config;
      stats;
      gates;
      issued;
      blocked = Array.make (Array.length gates) 0;
      call = 0;
      cf =
        Cf_front.create ~window:config.window ~max_chain:config.max_chain
          ~commutes ~gates ~issued ();
      scorer =
        Swap_scorer.create ~objective:config.objective ~maqam ~stats
          ~use_fine:config.use_fine ~locks ();
      head = 0;
      remaining = Array.length gates;
      locks;
      layout = Arch.Layout.copy initial;
      layout_version = 0;
      time = 0;
      events_rev = [];
      swap_budget = 10 * (Array.length gates + 1) * (n_physical + 1);
      pairs_cache = None;
      phys_cache = None;
    }
  in
  while st.remaining > 0 do
    let issued = issue_executable st in
    let swapped = if st.remaining > 0 then insert_swaps st else false in
    if st.remaining > 0 then begin
      let next = next_unlock st in
      if next < max_int then begin
        st.time <- next;
        st.stats.Stats.cycles <- st.stats.Stats.cycles + 1
      end
      else if not (issued || swapped) then force_swap st
      (* else: everything issued this cycle had zero duration (barriers);
         loop again at the same time. *)
    end
  done;
  let makespan = Array.fold_left max 0 st.locks in
  {
    Schedule.Routed.events = List.rev st.events_rev;
    initial;
    final = st.layout;
    makespan;
    n_logical;
  }
