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

(* The dependency DAG ({!Qc.Dag}'s edges: each gate after the previous
   gate on each of its qubits) and the routing state over it, in flat
   arrays: one set per domain, reused across routes and grown on demand, so
   a pass allocates nothing proportional to the circuit ([batch --jobs N]
   places in several domains at once). A route that finds its domain's set
   busy — another systhread of the domain is routing — works on a fresh
   one. Stamped arrays are never cleared: an entry counts as set only when
   it equals the current stamp, and stamps only grow. *)
type scratch = {
  mutable gates : Qc.Gate.t array;  (* [0, loaded) cleared after each route *)
  mutable loaded : int;
  mutable succ_off : int array;
      (* gate i's successors, ascending: succ.(succ_off.(i)) ..
         succ.(succ_off.(i) + n_succ.(i) - 1); room for one per qubit *)
  mutable n_succ : int array;
  mutable succ : int array;
  mutable last : int array;  (* per logical qubit: its latest gate *)
  mutable pending : int array;  (* per gate: predecessors not yet issued *)
  mutable front : int array;
      (* [0, n_front): the front, ascending; then gates released this step *)
  mutable seen : int array;  (* per gate: extended-set BFS stamp *)
  mutable queue : int array;  (* extended-set BFS queue *)
  mutable marked : int array;  (* per physical qubit: front-pair stamp *)
  mutable stamp : int;
  mutable busy : bool;
}

let no_gate = Qc.Gate.barrier []

let empty_scratch () =
  {
    gates = [||];
    loaded = 0;
    succ_off = [||];
    n_succ = [||];
    succ = [||];
    last = [||];
    pending = [||];
    front = [||];
    seen = [||];
    queue = [||];
    marked = [||];
    stamp = 0;
    busy = false;
  }

let scratch_key = Domain.DLS.new_key empty_scratch

(* No allocation between the test and the set: no other systhread can run
   in between. *)
let acquire () =
  let s = Domain.DLS.get scratch_key in
  if s.busy then empty_scratch ()
  else begin
    s.busy <- true;
    s
  end

let arity = function
  | Qc.Gate.One _ | Qc.Gate.Measure _ -> 1
  | Qc.Gate.Two _ -> 2
  | Qc.Gate.Barrier qs -> List.length qs

(* Gate [i] follows the latest gate on qubit [q], once per distinct
   predecessor. *)
let link s i q =
  let p = s.last.(q) in
  if p >= 0 then begin
    let k = s.succ_off.(p) + s.n_succ.(p) in
    if s.n_succ.(p) = 0 || s.succ.(k - 1) <> i then begin
      s.succ.(k) <- i;
      s.n_succ.(p) <- s.n_succ.(p) + 1;
      s.pending.(i) <- s.pending.(i) + 1
    end
  end

(* Load the circuit's gates — in reverse order when [reverse] — and build
   their DAG into [s]. Returns the gate count. *)
let load s ~reverse circuit ~n_physical =
  let n = Qc.Circuit.length circuit in
  let grow a len x = if Array.length a < len then Array.make len x else a in
  s.gates <- grow s.gates n no_gate;
  s.succ_off <- grow s.succ_off (n + 1) 0;
  s.n_succ <- grow s.n_succ n 0;
  s.pending <- grow s.pending n 0;
  s.front <- grow s.front n 0;
  s.seen <- grow s.seen n 0;
  s.queue <- grow s.queue n 0;
  s.last <- grow s.last (Qc.Circuit.n_qubits circuit) 0;
  s.marked <- grow s.marked n_physical 0;
  s.loaded <- n;
  List.iteri
    (fun k g -> s.gates.(if reverse then n - 1 - k else k) <- g)
    (Qc.Circuit.gates circuit);
  s.succ_off.(0) <- 0;
  for i = 0 to n - 1 do
    s.succ_off.(i + 1) <- s.succ_off.(i) + arity s.gates.(i)
  done;
  s.succ <- grow s.succ s.succ_off.(n) 0;
  Array.fill s.last 0 (Qc.Circuit.n_qubits circuit) (-1);
  for i = 0 to n - 1 do
    s.n_succ.(i) <- 0;
    s.pending.(i) <- 0;
    match s.gates.(i) with
    | Qc.Gate.One (_, q) | Qc.Gate.Measure (q, _) ->
      link s i q;
      s.last.(q) <- i
    | Qc.Gate.Two (_, q1, q2) ->
      link s i q1;
      link s i q2;
      s.last.(q1) <- i;
      s.last.(q2) <- i
    | Qc.Gate.Barrier qs ->
      List.iter (link s i) qs;
      List.iter (fun q -> s.last.(q) <- i) qs
  done;
  n

let next_stamp s =
  s.stamp <- s.stamp + 1;
  s.stamp

type state = {
  maqam : Arch.Maqam.t;
  config : config;
  sc : scratch;
  mutable n_front : int;
  mutable released : int;  (* next free slot after the front *)
  mutable n_done : int;
  layout : Arch.Layout.t;  (* a private copy, swapped in place *)
  emit : bool;  (* placement passes keep only the final layout *)
  mutable out_rev : (Qc.Gate.t * bool) list;
  dist : int -> int -> int;
  decay : float array;
  mutable swaps_since_reset : int;
  mutable swap_budget : int;
  (* The front's two-qubit gates (F) and the extended set (E) as logical
     pairs, valid while [pairs_stale] is false: SWAPs do not change the
     front, so consecutive SWAP steps share them. [fp]/[ep] hold their
     physical positions during one step's scoring. *)
  mutable pairs_stale : bool;
  mutable n_f : int;
  fl : int array;  (* logical, 2k and 2k+1 for pair k *)
  fp : int array;
  mutable n_e : int;
  el : int array;
  ep : int array;
  best : float array;  (* the best score so far, unboxed *)
  mutable best_a : int;  (* its edge; -1 before the first *)
  mutable best_b : int;
}

(* Distances through the flat table on dense devices; an unreachable pair
   goes to [Coupling.distance], which raises for it as it always has. *)
let distance_fn coupling =
  match Arch.Coupling.backend coupling with
  | Arch.Coupling.Dense ->
    let table = Arch.Coupling.distance_table coupling in
    let n = Arch.Coupling.n_qubits coupling in
    fun a b ->
      let d = table.((a * n) + b) in
      if d < 0 then Arch.Coupling.distance coupling a b else d
  | Arch.Coupling.Sparse -> Arch.Coupling.distance coupling

(* One gate issued: its successors with no pending predecessor left are
   appended after the front. *)
let release st i =
  let sc = st.sc in
  for k = sc.succ_off.(i) to sc.succ_off.(i) + sc.n_succ.(i) - 1 do
    let s = sc.succ.(k) in
    sc.pending.(s) <- sc.pending.(s) - 1;
    if sc.pending.(s) = 0 then begin
      sc.front.(st.released) <- s;
      st.released <- st.released + 1
    end
  done

(* Issue every front gate that fits the current layout, in ascending
   order. Gates they release join the front only afterwards, so — as with a
   front recomputed per step — they wait for the next step. *)
let execute_front st =
  let front = st.sc.front in
  let n_front = st.n_front in
  let kept = ref 0 in
  st.released <- n_front;
  for j = 0 to n_front - 1 do
    let i = front.(j) in
    let g = st.sc.gates.(i) in
    if Arch.Maqam.fits st.maqam st.layout g then begin
      if st.emit then
        st.out_rev <-
          (Qc.Gate.remap (Arch.Layout.phys_of_log st.layout) g, false)
          :: st.out_rev;
      st.n_done <- st.n_done + 1;
      release st i
    end
    else begin
      front.(!kept) <- i;
      incr kept
    end
  done;
  let issued = !kept < n_front in
  if issued then begin
    (* kept gates are ascending already; insert the released ones *)
    let n_released = st.released - n_front in
    Array.blit front n_front front !kept n_released;
    for j = !kept to !kept + n_released - 1 do
      let x = front.(j) in
      let k = ref (j - 1) in
      while !k >= 0 && front.(!k) > x do
        front.(!k + 1) <- front.(!k);
        decr k
      done;
      front.(!k + 1) <- x
    done;
    st.n_front <- !kept + n_released;
    st.pairs_stale <- true
  end;
  issued

(* F, then E: the nearest unissued successors of the front, breadth-first
   from the front in ascending order and each gate's successors in
   ascending order, capped at [extended_size] two-qubit gates. A gate is
   queued once, at its first push, which visits gates in the same order as
   marking them when popped. *)
let collect_pairs st =
  let sc = st.sc in
  let n_f = ref 0 in
  for j = 0 to st.n_front - 1 do
    match sc.gates.(sc.front.(j)) with
    | Qc.Gate.Two (_, q1, q2) ->
      st.fl.(2 * !n_f) <- q1;
      st.fl.((2 * !n_f) + 1) <- q2;
      incr n_f
    | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> ()
  done;
  st.n_f <- !n_f;
  let stamp = next_stamp sc in
  let tail = ref 0 in
  let push_succs i =
    for k = sc.succ_off.(i) to sc.succ_off.(i) + sc.n_succ.(i) - 1 do
      let s = sc.succ.(k) in
      if sc.seen.(s) <> stamp then begin
        sc.seen.(s) <- stamp;
        sc.queue.(!tail) <- s;
        incr tail
      end
    done
  in
  for j = 0 to st.n_front - 1 do
    push_succs sc.front.(j)
  done;
  let head = ref 0 and n_e = ref 0 in
  while !head < !tail && !n_e < st.config.extended_size do
    let i = sc.queue.(!head) in
    incr head;
    (match sc.gates.(i) with
    | Qc.Gate.Two (_, q1, q2) ->
      st.el.(2 * !n_e) <- q1;
      st.el.((2 * !n_e) + 1) <- q2;
      incr n_e
    | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> ());
    push_succs i
  done;
  st.n_e <- !n_e;
  st.pairs_stale <- false

let place st logical physical n =
  for k = 0 to (2 * n) - 1 do
    physical.(k) <- Arch.Layout.phys_of_log st.layout logical.(k)
  done

(* Σ D over pairs as placed after exchanging physical qubits [a] and [b].
   Integer sums are exact, so the float scores equal a float fold's. *)
let sum_after st ps n a b =
  let acc = ref 0 in
  for k = 0 to n - 1 do
    let p = ps.(2 * k) and q = ps.((2 * k) + 1) in
    let p = if p = a then b else if p = b then a else p in
    let q = if q = a then b else if q = b then a else q in
    acc := !acc + st.dist p q
  done;
  !acc

(* Score the SWAP of each coupling edge [(p, p')] over [p]'s neighbours,
   keeping the best in [st]: the lowest H wins, ties to the least
   [(min, max)] edge — the first strict minimum in ascending edge order. An
   edge joining two front qubits is seen from both ends and scored from its
   lower one. *)
let rec score_edges st stamp p = function
  | [] -> ()
  | p' :: rest ->
    if st.sc.marked.(p') <> stamp || p < p' then begin
      let a = if p < p' then p else p' and b = if p < p' then p' else p in
      let nf = float_of_int (if st.n_f > 1 then st.n_f else 1) in
      let ne = float_of_int (if st.n_e > 1 then st.n_e else 1) in
      let base =
        (float_of_int (sum_after st st.fp st.n_f a b) /. nf)
        +. (st.config.extended_weight
            *. float_of_int (sum_after st st.ep st.n_e a b)
            /. ne)
      in
      (* Float.max, inlined: decays are positive *)
      let da = st.decay.(a) and db = st.decay.(b) in
      let s = (if db > da then db else da) *. base in
      let bs = st.best.(0) in
      if
        st.best_a < 0 || s < bs
        || (s = bs && (a < st.best_a || (a = st.best_a && b < st.best_b)))
      then begin
        st.best.(0) <- s;
        st.best_a <- a;
        st.best_b <- b
      end
    end;
    score_edges st stamp p rest

(* The SWAP to apply: the best over the edges incident to the front pairs'
   physical qubits. *)
let best_swap st =
  let coupling = Arch.Maqam.coupling st.maqam in
  let stamp = next_stamp st.sc in
  for k = 0 to (2 * st.n_f) - 1 do
    st.sc.marked.(st.fp.(k)) <- stamp
  done;
  st.best_a <- -1;
  for k = 0 to (2 * st.n_f) - 1 do
    score_edges st stamp st.fp.(k) (Arch.Coupling.neighbors coupling st.fp.(k))
  done;
  if st.best_a < 0 then
    raise (Stuck "SABRE: no SWAP candidate — disconnected device?");
  (st.best_a, st.best_b)

let reset_decay st =
  Array.fill st.decay 0 (Array.length st.decay) 1.;
  st.swaps_since_reset <- 0

let apply_swap st (p1, p2) =
  if st.swap_budget <= 0 then
    raise (Stuck "SABRE: swap budget exhausted — unroutable input?");
  st.swap_budget <- st.swap_budget - 1;
  if st.emit then st.out_rev <- (Qc.Gate.swap p1 p2, true) :: st.out_rev;
  Arch.Layout.swap_physical_inplace st.layout p1 p2;
  st.decay.(p1) <- st.decay.(p1) +. st.config.decay_delta;
  st.decay.(p2) <- st.decay.(p2) +. st.config.decay_delta;
  st.swaps_since_reset <- st.swaps_since_reset + 1;
  if st.swaps_since_reset >= st.config.decay_reset then reset_decay st

let swap_step st =
  if st.pairs_stale then collect_pairs st;
  place st st.fl st.fp st.n_f;
  place st st.el st.ep st.n_e;
  apply_swap st (best_swap st)

let route_on sc ~emit ~reverse ~config ~maqam ~initial circuit ~n_physical
    ~n_logical =
  let n = load sc ~reverse circuit ~n_physical in
  let n_front = ref 0 in
  for i = 0 to n - 1 do
    if sc.pending.(i) = 0 then begin
      sc.front.(!n_front) <- i;
      incr n_front
    end
  done;
  let n_e = max 0 (min config.extended_size n) in
  let st =
    {
      maqam;
      config;
      sc;
      n_front = !n_front;
      released = !n_front;
      n_done = 0;
      layout = Arch.Layout.copy initial;
      emit;
      out_rev = [];
      dist = distance_fn (Arch.Maqam.coupling maqam);
      decay = Array.make n_physical 1.;
      swaps_since_reset = 0;
      swap_budget = 10 * (n + 1) * (n_physical + 1);
      pairs_stale = true;
      n_f = 0;
      fl = Array.make (2 * n_logical) 0;
      fp = Array.make (2 * n_logical) 0;
      n_e = 0;
      el = Array.make (2 * n_e) 0;
      ep = Array.make (2 * n_e) 0;
      best = [| 0. |];
      best_a = -1;
      best_b = -1;
    }
  in
  while st.n_done < n do
    if execute_front st then reset_decay st else swap_step st
  done;
  (List.rev st.out_rev, st.layout)

let route ~emit ~reverse ~config ~maqam ~initial circuit =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  if n_logical > n_physical then
    invalid_arg "Sabre.route_gates: circuit wider than device";
  if
    Arch.Layout.n_logical initial <> n_logical
    || Arch.Layout.n_physical initial <> n_physical
  then invalid_arg "Sabre.route_gates: layout size mismatch";
  let sc = acquire () in
  Fun.protect
    ~finally:(fun () ->
      Array.fill sc.gates 0 sc.loaded no_gate;
      sc.busy <- false)
    (fun () ->
      route_on sc ~emit ~reverse ~config ~maqam ~initial circuit ~n_physical
        ~n_logical)

let route_tagged ~config ~maqam ~initial circuit =
  route ~emit:true ~reverse:false ~config ~maqam ~initial circuit

let route_gates ?(config = default_config) ~maqam ~initial circuit =
  let tagged, final = route_tagged ~config ~maqam ~initial circuit in
  (List.map fst tagged, final)

let final_layout ?(config = default_config) ?(reverse = false) ~maqam ~initial
    circuit =
  snd (route ~emit:false ~reverse ~config ~maqam ~initial circuit)

let run ?(config = default_config) ~maqam ~initial circuit =
  let tagged, final = route_tagged ~config ~maqam ~initial circuit in
  let n_physical = Arch.Maqam.n_qubits maqam in
  let events, makespan =
    Schedule.Asap.schedule_tagged ~durations:(Arch.Maqam.durations maqam)
      ~n_physical tagged
  in
  {
    Schedule.Routed.events;
    initial;
    final;
    makespan;
    n_logical = Qc.Circuit.n_qubits circuit;
  }
