type config = {
  window : int;
  use_commutativity : bool;
  use_fine : bool;
  objective : Objective.t;
}

let default_config =
  {
    window = 200;
    use_commutativity = true;
    use_fine = true;
    objective = Objective.makespan;
  }

exception Stuck of string

(* The route's working arrays: one set per domain
   ({!Schedule.Scratch}), reused across routes and grown geometrically,
   so a route allocates no array proportional to its circuit once its
   domain has routed one as large. Per-route entries are reset by fills
   at the start of each route. The schedule is written in issue order
   into [ev_gates] and [ev_data], the arrays of a {!Schedule.Timeline.t}
   the route lends out. [gates] and
   [ev_gates] hold references of the route only in [0, loaded) and
   [0, n_events), and release clears those ranges. *)
type scratch = {
  mutable gates : Qc.Gate.t array;
  mutable loaded : int;
  mutable issued : bool array;
  mutable blocked : int array;
  mutable locks : int array;
  mutable locked : int array;
  mutable listed : bool array;
  mutable lpairs : int array;
  mutable ppairs : int array;
  mutable ev_gates : Qc.Gate.t array;
  mutable ev_data : Bytes.t;  (* {!Schedule.Timeline.bytes_per_event} each *)
  mutable n_events : int;
  commute : Qc.Commute.Compiled.t;
  cf : Cf_front.t;
  scorer : Swap_scorer.t;
}

let no_gate = Qc.Gate.barrier []

let empty_scratch () =
  {
    gates = [||];
    loaded = 0;
    issued = [||];
    blocked = [||];
    locks = [||];
    locked = [||];
    listed = [||];
    lpairs = [||];
    ppairs = [||];
    ev_gates = [||];
    ev_data = Bytes.empty;
    n_events = 0;
    commute = Qc.Commute.Compiled.empty ();
    cf = Cf_front.empty ();
    scorer = Swap_scorer.empty ();
  }

let scratch_words s =
  Array.length s.gates + Array.length s.issued + Array.length s.blocked
  + Array.length s.locks + Array.length s.locked + Array.length s.listed
  + Array.length s.lpairs + Array.length s.ppairs + Array.length s.ev_gates
  + (Bytes.length s.ev_data / 8)
  + Qc.Commute.Compiled.words s.commute
  + Cf_front.words s.cf + Swap_scorer.words s.scorer

let clear_scratch s =
  Array.fill s.gates 0 s.loaded no_gate;
  s.loaded <- 0;
  Array.fill s.ev_gates 0 s.n_events no_gate;
  s.n_events <- 0;
  Qc.Commute.Compiled.clear s.commute;
  Swap_scorer.clear s.scorer

let scratch =
  Schedule.Scratch.make ~create:empty_scratch ~words:scratch_words
    ~clear:clear_scratch

(* [a], or a larger array of [fill] when it has no room for [len]. *)
let room a len fill =
  if Array.length a >= len then a
  else Array.make (Int.max len (2 * Array.length a)) fill

type state = {
  maqam : Arch.Maqam.t;
  dist : int array;  (* {!Arch.Coupling.distance_table} *)
  n_physical : int;
  config : config;
  issue_min : int;  (* the objective's issue threshold for this route *)
  stats : Stats.t;
  stats_opt : Stats.t option;
      (* [Some stats], built once: handing [Cf_front.front] its optional
         argument this way allocates no option per call *)
  sc : scratch;
  gates : Qc.Gate.t array;  (* the scratch's, [0, n_gates) this route's *)
  n_gates : int;
  issued : bool array;
  blocked : int array;  (* per gate: the last [call] that found it blocked *)
  mutable call : int;  (* [issue_executable] calls so far *)
  cf : Cf_front.t;  (* incremental front over [gates]/[issued] *)
  scorer : Swap_scorer.t;  (* incremental SWAP candidate scoring *)
  mutable head : int;  (* first unissued index *)
  mutable remaining : int;
  locks : int array;  (* per physical qubit: busy until this time *)
  locked : int array;
      (* [0, n_locked): every qubit locked past [time], and perhaps some
         freed since the last [next_unlock]; each at most once *)
  mutable n_locked : int;
  listed : bool array;  (* per physical qubit: in [locked] *)
  connected : bool;  (* the device is connected: every pair is routable *)
  layout : Arch.Layout.t;  (* private copy, mutated in place on SWAPs *)
  phys_of : int -> int;  (* [Arch.Layout.phys_of_log layout], built once *)
  mutable layout_version : int;  (* bumped on every SWAP *)
  mutable time : int;
  mutable swap_budget : int;
  (* Per-cycle derived caches, keyed by the front's {!Cf_front.version}
     and, for the physical resolution, the layout version. Pair [k] is
     [(x.(2k), x.(2k+1))] in the scratch's [lpairs]/[ppairs]. *)
  mutable pairs_version : int;
  mutable n_pairs : int;
  mutable phys_front : int;  (* the front version [ppairs] resolved *)
  mutable phys_version : int;
}

(* The front's length; its gates are [Cf_front.items st.cf]. *)
let cf_front st = Cf_front.front ?stats:st.stats_opt st.cf st.head

(* An edge is a pair at distance 1: one table load. *)
let[@inline] adjacent st a b = st.dist.((a * st.n_physical) + b) = 1

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
    && adjacent st p1 p2
  | Qc.Gate.Barrier qs -> lock_free st qs

(* Busy until [until]; a qubit locked past [time] joins [locked]. *)
let lock st p until =
  st.locks.(p) <- until;
  if until > st.time && not st.listed.(p) then begin
    st.listed.(p) <- true;
    st.locked.(st.n_locked) <- p;
    st.n_locked <- st.n_locked + 1
  end

let rec lock_all st until = function
  | [] -> ()
  | p :: rest ->
    lock st p until;
    lock_all st until rest

(* Room for [n] events, keeping the first [n_events]. *)
let reserve_events sc n =
  let k = sc.n_events in
  let gates = Array.make n no_gate in
  Array.blit sc.ev_gates 0 gates 0 k;
  sc.ev_gates <- gates;
  let w = Schedule.Timeline.bytes_per_event in
  let data = Bytes.create (w * n) in
  Bytes.blit sc.ev_data 0 data 0 (w * k);
  sc.ev_data <- data

(* Event [gate] at the current time on physical [a] and [b] ([-1] for
   none; a barrier's qubits are in its physical [gate]), locking them. *)
let emit st gate a b duration =
  let sc = st.sc in
  let k = sc.n_events in
  if k = Array.length sc.ev_gates then reserve_events sc (2 * k);
  sc.ev_gates.(k) <- gate;
  Schedule.Timeline.write sc.ev_data k ~start:st.time ~duration a b;
  sc.n_events <- k + 1;
  let until = st.time + duration in
  match gate with
  | Qc.Gate.Barrier ps -> lock_all st until ps
  | Qc.Gate.One _ | Qc.Gate.Measure _ -> lock st a until
  | Qc.Gate.Two _ ->
    lock st a until;
    lock st b until

let advance_head st =
  while st.head < st.n_gates && st.issued.(st.head) do
    st.head <- st.head + 1
  done

(* A program gate is stored as the circuit's own gate with its physical
   operands; a barrier, whose qubits do not fit two operands, as its
   physical barrier. *)
let issue_gate st i =
  let g = st.gates.(i) in
  let duration = Arch.Maqam.duration st.maqam g in
  (match g with
  | Qc.Gate.One (_, q) | Qc.Gate.Measure (q, _) ->
    emit st g (Arch.Layout.phys_of_log st.layout q) (-1) duration
  | Qc.Gate.Two (_, q1, q2) ->
    emit st g
      (Arch.Layout.phys_of_log st.layout q1)
      (Arch.Layout.phys_of_log st.layout q2)
      duration
  | Qc.Gate.Barrier _ -> emit st (Qc.Gate.remap st.phys_of g) (-1) (-1) duration);
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
   front. Returns whether anything issued.
   A pass walks the front's array without recomputing the front, so
   nothing rewrites the array under it. *)
let rec issue_pass st front len k progressed =
  if k >= len then progressed
  else begin
    let i = front.(k) in
    if st.blocked.(i) = st.call then issue_pass st front len (k + 1) progressed
    else if executable st st.gates.(i) then begin
      issue_gate st i;
      issue_pass st front len (k + 1) true
    end
    else begin
      st.blocked.(i) <- st.call;
      issue_pass st front len (k + 1) progressed
    end
  end

let rec issue_fixpoint st issued_any =
  let len = cf_front st in
  if issue_pass st (Cf_front.items st.cf) len 0 false then
    issue_fixpoint st true
  else issued_any

let issue_executable st =
  st.call <- st.call + 1;
  issue_fixpoint st false

(* Logical operand pairs of the CF two-qubit gates among the front's
   [len] gates (for the heuristic), cached per front version. *)
let cf_pairs st len =
  let v = Cf_front.version st.cf in
  if st.pairs_version <> v then begin
    let sc = st.sc and front = Cf_front.items st.cf in
    sc.lpairs <- room sc.lpairs (2 * len) 0;
    let k = ref 0 in
    for j = 0 to len - 1 do
      match st.gates.(front.(j)) with
      | Qc.Gate.Two (_, q1, q2) ->
        sc.lpairs.(2 * !k) <- q1;
        sc.lpairs.((2 * !k) + 1) <- q2;
        incr k
      | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> ()
    done;
    st.n_pairs <- !k;
    st.pairs_version <- v
  end

(* Physical endpoints of the CF pairs under the current layout, cached per
   (front version, layout version) so SWAP scoring does not re-resolve
   the layout for every candidate edge. Pairs straddling disconnected
   components are a typed routing failure, not a distance-table sentinel
   leaking into the heuristic arithmetic; only a disconnected device can
   have them. *)
let phys_pairs st len =
  let v = Cf_front.version st.cf in
  if st.phys_front <> v || st.phys_version <> st.layout_version then begin
    cf_pairs st len;
    let sc = st.sc in
    let coupling = Arch.Maqam.coupling st.maqam in
    sc.ppairs <- room sc.ppairs (Array.length sc.lpairs) 0;
    for k = 0 to st.n_pairs - 1 do
      let p1 = Arch.Layout.phys_of_log st.layout sc.lpairs.(2 * k)
      and p2 = Arch.Layout.phys_of_log st.layout sc.lpairs.((2 * k) + 1) in
      if (not st.connected) && not (Arch.Coupling.reachable coupling p1 p2)
      then
        raise
          (Stuck
             (Fmt.str
                "two-qubit gate on physical qubits %d and %d, which lie in \
                 disconnected components of %s — unroutable placement"
                p1 p2
                (Arch.Coupling.name coupling)));
      sc.ppairs.(2 * k) <- p1;
      sc.ppairs.((2 * k) + 1) <- p2
    done;
    st.stats.Stats.pair_resolutions <- st.stats.Stats.pair_resolutions + 1;
    st.phys_front <- v;
    st.phys_version <- st.layout_version
  end

let issue_swap st p1 p2 =
  if st.swap_budget <= 0 then
    raise
      (Stuck
         (Fmt.str
            "swap budget exhausted at t=%d with %d gates remaining — \
             unroutable input?"
            st.time st.remaining));
  st.swap_budget <- st.swap_budget - 1;
  emit st Schedule.Timeline.inserted_swap p1 p2
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
let rec swap_loop st sc issue_min issued_any =
  let e = Swap_scorer.best sc in
  if e >= 0 && Swap_scorer.basic sc e > issue_min then begin
    let x = Swap_scorer.edge_u sc e and y = Swap_scorer.edge_v sc e in
    issue_swap st x y;
    Swap_scorer.commit sc x y;
    swap_loop st sc issue_min true
  end
  else issued_any

let insert_swaps st =
  phys_pairs st (cf_front st);
  Swap_scorer.begin_cycle st.scorer ~time:st.time ~pairs:st.sc.ppairs
    ~n_pairs:st.n_pairs;
  swap_loop st st.scorer st.issue_min false

(* Deadlock escape: every qubit is free yet nothing could be issued. Force
   the SWAP that most reduces the oldest pending two-qubit gate, with the
   global priority as tiebreak. On a connected device some candidate
   shortens that pair by one, so each forced SWAP gains one step for it —
   but nothing stops the next cycle's greedy SWAPs from undoing the step,
   so this alone does not guarantee progress (see the stall-valve item in
   ROADMAP.md). The scorer's cycle state is current: force is only
   reached when this cycle issued no gate and committed no SWAP. *)
let force_swap st =
  let e = Swap_scorer.force_best st.scorer in
  if e >= 0 then begin
    issue_swap st (Swap_scorer.edge_u st.scorer e)
      (Swap_scorer.edge_v st.scorer e);
    st.stats.Stats.forced_swaps <- st.stats.Stats.forced_swaps + 1
  end
  else
    raise
      (Stuck
         (Fmt.str
            "deadlock with no SWAP candidate at t=%d (%d gates left) — \
             disconnected device?"
            st.time st.remaining))

(* The earliest lock past [time], or [max_int]: a scan of [locked], which
   drops the qubits that are free again. *)
let next_unlock st =
  let next = ref max_int and kept = ref 0 in
  for i = 0 to st.n_locked - 1 do
    let p = st.locked.(i) in
    let l = st.locks.(p) in
    if l > st.time then begin
      if l < !next then next := l;
      st.locked.(!kept) <- p;
      incr kept
    end
    else st.listed.(p) <- false
  done;
  st.n_locked <- !kept;
  !next

(* Load the circuit into [sc], route it and hand [k] the schedule in
   [sc]'s arrays. *)
let route_in (sc : scratch) ~config ~stats ~maqam ~initial ~n_physical
    ~n_logical circuit k =
  let n = Qc.Circuit.length circuit in
  sc.gates <- room sc.gates n no_gate;
  sc.loaded <- n;
  List.iteri (fun i g -> sc.gates.(i) <- g) (Qc.Circuit.gates circuit);
  sc.issued <- room sc.issued n false;
  Array.fill sc.issued 0 n false;
  sc.blocked <- room sc.blocked n 0;
  Array.fill sc.blocked 0 n 0;
  sc.locks <- room sc.locks n_physical 0;
  Array.fill sc.locks 0 n_physical 0;
  sc.locked <- room sc.locked n_physical 0;
  sc.listed <- room sc.listed n_physical false;
  Array.fill sc.listed 0 n_physical false;
  sc.n_events <- 0;
  (* a route issues every gate and, on the paper devices, fewer SWAPs than
     gates: twice the gates up front, so the arrays grow at most once
     more *)
  if Array.length sc.ev_gates < 2 * n then
    reserve_events sc (Int.max 64 (2 * n));
  let commutes =
    if config.use_commutativity then begin
      let c = sc.commute in
      Qc.Commute.Compiled.load c sc.gates n;
      fun i j -> Qc.Commute.Compiled.commutes c i j
    end
    else fun _ _ -> false
  in
  Cf_front.load sc.cf ~window:config.window ~commutes ~gates:sc.gates
    ~issued:sc.issued ~n;
  let issue_min =
    Objective.issue_min config.objective (Arch.Maqam.durations maqam)
  in
  Swap_scorer.load sc.scorer ~issue_min ~maqam ~stats
    ~use_fine:config.use_fine ~locks:sc.locks ();
  let layout = Arch.Layout.copy initial in
  let st =
    {
      maqam;
      dist = Arch.Coupling.distance_table (Arch.Maqam.coupling maqam);
      n_physical;
      config;
      issue_min;
      stats;
      stats_opt = Some stats;
      sc;
      gates = sc.gates;
      n_gates = n;
      issued = sc.issued;
      blocked = sc.blocked;
      call = 0;
      cf = sc.cf;
      scorer = sc.scorer;
      head = 0;
      remaining = n;
      locks = sc.locks;
      locked = sc.locked;
      n_locked = 0;
      listed = sc.listed;
      connected = Arch.Coupling.connected (Arch.Maqam.coupling maqam);
      layout;
      phys_of = Arch.Layout.phys_of_log layout;
      layout_version = 0;
      time = 0;
      swap_budget = 10 * (n + 1) * (n_physical + 1);
      pairs_version = -1;
      n_pairs = 0;
      phys_front = -1;
      phys_version = -1;
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
  let makespan = ref 0 in
  for p = 0 to n_physical - 1 do
    makespan := Int.max !makespan st.locks.(p)
  done;
  k
    {
      Schedule.Timeline.length = sc.n_events;
      gates = sc.ev_gates;
      data = sc.ev_data;
      initial;
      final = st.layout;
      makespan = !makespan;
      n_logical;
    }

let route ?(config = default_config) ?stats ~maqam ~initial circuit k =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  if n_logical > n_physical then
    invalid_arg "Remapper.run: circuit wider than device";
  if
    Arch.Layout.n_logical initial <> n_logical
    || Arch.Layout.n_physical initial <> n_physical
  then invalid_arg "Remapper.run: layout size mismatch";
  let stats = match stats with Some s -> s | None -> Stats.create () in
  Schedule.Scratch.use scratch (fun sc ->
      route_in sc ~config ~stats ~maqam ~initial ~n_physical ~n_logical circuit
        k)

let run ?config ?stats ~maqam ~initial circuit =
  route ?config ?stats ~maqam ~initial circuit Schedule.Timeline.to_routed
