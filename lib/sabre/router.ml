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
   arrays: one set per domain ({!Schedule.Scratch}), reused across routes
   and grown on demand, so a pass allocates nothing proportional to the
   circuit. Stamped arrays are never cleared: an entry counts as set only
   when it equals the current stamp, and stamps only grow. *)
type scratch = {
  mutable gates : Qc.Gate.t array;  (* [0, loaded) cleared after each route *)
  mutable loaded : int;
  mutable op_a : int array;
      (* per gate: a two-qubit gate's logical operands, op_a.(i) and
         op_b.(i); op_a.(i) is -1 for every other gate *)
  mutable op_b : int array;
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
  mutable pair_at : int array;
      (* per physical qubit: its first F/E pair endpoint slot, valid while
         [pair_stamp] holds the step's stamp; [next_at] chains the rest *)
  mutable pair_stamp : int array;
  mutable next_at : int array;  (* per slot: the next on its qubit, or -1 *)
  (* The front's two-qubit gates (F) and then the extended set (E) as
     logical pairs, pair k in slots 2k and 2k+1; [pp] holds their physical
     positions and [pd] each pair's distance. *)
  mutable pl : int array;
  mutable pp : int array;
  mutable pd : int array;
  mutable decay : float array;
      (* per physical qubit: its decay, valid while [decay_stamp] holds the
         route's decay epoch, else 1 *)
  mutable decay_stamp : int array;
  mutable stamp : int;
}

let no_gate = Qc.Gate.barrier []

let empty_scratch () =
  {
    gates = [||];
    loaded = 0;
    op_a = [||];
    op_b = [||];
    succ_off = [||];
    n_succ = [||];
    succ = [||];
    last = [||];
    pending = [||];
    front = [||];
    seen = [||];
    queue = [||];
    marked = [||];
    pair_at = [||];
    pair_stamp = [||];
    next_at = [||];
    pl = [||];
    pp = [||];
    pd = [||];
    decay = [||];
    decay_stamp = [||];
    stamp = 0;
  }

let scratch_words s =
  Array.length s.gates + Array.length s.op_a + Array.length s.op_b
  + Array.length s.succ_off + Array.length s.n_succ + Array.length s.succ
  + Array.length s.last + Array.length s.pending + Array.length s.front
  + Array.length s.seen + Array.length s.queue + Array.length s.marked
  + Array.length s.pair_at + Array.length s.pair_stamp
  + Array.length s.next_at + Array.length s.pl + Array.length s.pp
  + Array.length s.pd + Array.length s.decay + Array.length s.decay_stamp

let scratch =
  Schedule.Scratch.make ~create:empty_scratch ~words:scratch_words
    ~clear:(fun s -> Array.fill s.gates 0 s.loaded no_gate)

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

let grow a len x = if Array.length a < len then Array.make len x else a

(* Load the circuit's gates — in reverse order when [reverse] — and build
   their DAG into [s]. Returns the gate count. *)
let load s ~reverse circuit =
  let n = Qc.Circuit.length circuit in
  s.gates <- grow s.gates n no_gate;
  s.op_a <- grow s.op_a n 0;
  s.op_b <- grow s.op_b n 0;
  s.succ_off <- grow s.succ_off (n + 1) 0;
  s.n_succ <- grow s.n_succ n 0;
  s.pending <- grow s.pending n 0;
  s.front <- grow s.front n 0;
  s.seen <- grow s.seen n 0;
  s.queue <- grow s.queue n 0;
  s.last <- grow s.last (Qc.Circuit.n_qubits circuit) 0;
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
    s.op_a.(i) <- -1;
    match s.gates.(i) with
    | Qc.Gate.One (_, q) | Qc.Gate.Measure (q, _) ->
      link s i q;
      s.last.(q) <- i
    | Qc.Gate.Two (_, q1, q2) ->
      s.op_a.(i) <- q1;
      s.op_b.(i) <- q2;
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
  n : int;  (* physical qubits: a table row's length *)
  dist : int array;  (* {!Arch.Coupling.distance_table} *)
  mutable n_front : int;
  mutable released : int;  (* next free slot after the front *)
  mutable n_done : int;
  layout : Arch.Layout.t;  (* a private copy, swapped in place *)
  emit : bool;  (* placement passes keep only the final layout *)
  mutable out_rev : (Qc.Gate.t * bool) list;
  mutable decay_epoch : int;  (* a stamp; a fresh one resets every decay *)
  mutable swaps_since_reset : int;
  mutable swap_budget : int;
  (* F and E in the scratch's [pl] are valid while [pairs_stale] is false:
     SWAPs do not change the front, so consecutive SWAP steps share them.
     While [measured] holds, so are [pp], [pd], the totals and the pair
     chains, for the current layout: a SWAP step that follows a SWAP step
     carries them over instead of measuring every pair again. *)
  mutable pairs_stale : bool;
  mutable measured : bool;
  mutable n_f : int;
  mutable n_e : int;
  mutable total_f : int;  (* Σ D over F, then over E, as placed *)
  mutable total_e : int;
  mutable delta_f : int;  (* one candidate's change to the totals *)
  mutable delta_e : int;
  mutable at_stamp : int;  (* the chains' [pair_stamp] *)
  best : float array;  (* the best score so far, unboxed *)
  mutable best_a : int;  (* its edge; -1 before the first *)
  mutable best_b : int;
  mutable best_df : int;  (* its [delta_f] and [delta_e] *)
  mutable best_de : int;
}

(* Distances through the flat table, negative for an unreachable pair. *)
let[@inline] dist st a b = st.dist.((a * st.n) + b)
let[@inline] adjacent st a b = dist st a b = 1

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
  let sc = st.sc in
  let front = sc.front in
  let n_front = st.n_front in
  let kept = ref 0 in
  st.released <- n_front;
  for j = 0 to n_front - 1 do
    let i = front.(j) in
    let a = sc.op_a.(i) in
    if
      a < 0
      || adjacent st
           (Arch.Layout.phys_of_log st.layout a)
           (Arch.Layout.phys_of_log st.layout sc.op_b.(i))
    then begin
      if st.emit then
        st.out_rev <-
          ( Qc.Gate.remap (Arch.Layout.phys_of_log st.layout) sc.gates.(i),
            false )
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

(* Queue gate [i]'s successors not yet seen at [stamp], from [tail] on;
   returns the new tail. *)
let push_succs sc stamp tail i =
  let tail = ref tail in
  for k = sc.succ_off.(i) to sc.succ_off.(i) + sc.n_succ.(i) - 1 do
    let s = sc.succ.(k) in
    if sc.seen.(s) <> stamp then begin
      sc.seen.(s) <- stamp;
      sc.queue.(!tail) <- s;
      incr tail
    end
  done;
  !tail

(* F, then E: the nearest unissued successors of the front, breadth-first
   from the front in ascending order and each gate's successors in
   ascending order, capped at [extended_size] two-qubit gates. A gate is
   queued once, at its first push, which visits gates in the same order as
   marking them when popped. *)
let collect_pairs st =
  let sc = st.sc in
  let n_f = ref 0 in
  for j = 0 to st.n_front - 1 do
    let i = sc.front.(j) in
    if sc.op_a.(i) >= 0 then begin
      sc.pl.(2 * !n_f) <- sc.op_a.(i);
      sc.pl.((2 * !n_f) + 1) <- sc.op_b.(i);
      incr n_f
    end
  done;
  st.n_f <- !n_f;
  let stamp = next_stamp sc in
  let tail = ref 0 in
  for j = 0 to st.n_front - 1 do
    tail := push_succs sc stamp !tail sc.front.(j)
  done;
  let head = ref 0 and n_e = ref 0 in
  while !head < !tail && !n_e < st.config.extended_size do
    let i = sc.queue.(!head) in
    incr head;
    if sc.op_a.(i) >= 0 then begin
      let k = 2 * (st.n_f + !n_e) in
      sc.pl.(k) <- sc.op_a.(i);
      sc.pl.(k + 1) <- sc.op_b.(i);
      incr n_e
    end;
    tail := push_succs sc stamp !tail i
  done;
  st.n_e <- !n_e;
  st.pairs_stale <- false;
  st.measured <- false

let place st =
  let sc = st.sc in
  for k = 0 to (2 * (st.n_f + st.n_e)) - 1 do
    sc.pp.(k) <- Arch.Layout.phys_of_log st.layout sc.pl.(k)
  done

(* At the first candidate of a SWAP step that carries nothing over (a step
   with none raises [Stuck] before reading any distance): Σ D over F and
   over E as placed, each pair's distance, and each physical qubit's pair
   endpoints. A pair in disconnected components stays so after any SWAP,
   so [Coupling.distance] raises for it here, as scoring always has. *)
let measure st =
  let sc = st.sc in
  let stamp = next_stamp sc in
  st.at_stamp <- stamp;
  let tf = ref 0 and te = ref 0 in
  for k = 0 to st.n_f + st.n_e - 1 do
    let p = sc.pp.(2 * k) and q = sc.pp.((2 * k) + 1) in
    let d = dist st p q in
    if d < 0 then
      ignore (Arch.Coupling.distance (Arch.Maqam.coupling st.maqam) p q);
    sc.pd.(k) <- d;
    if k < st.n_f then tf := !tf + d else te := !te + d;
    for s = 2 * k to (2 * k) + 1 do
      let x = sc.pp.(s) in
      sc.next_at.(s) <-
        (if sc.pair_stamp.(x) = stamp then sc.pair_at.(x) else -1);
      sc.pair_at.(x) <- s;
      sc.pair_stamp.(x) <- stamp
    done
  done;
  st.total_f <- !tf;
  st.total_e <- !te;
  st.measured <- true

(* Add to [delta_f]/[delta_e] the change of the pairs on [p] when [p]
   moves to [q]. The pair on both [p] and [q] keeps its distance. *)
let shift st p q =
  let sc = st.sc in
  if sc.pair_stamp.(p) = st.at_stamp then begin
    let s = ref sc.pair_at.(p) in
    while !s >= 0 do
      let o = sc.pp.(!s lxor 1) in
      if o <> q then begin
        let d = dist st q o - sc.pd.(!s lsr 1) in
        if !s < 2 * st.n_f then st.delta_f <- st.delta_f + d
        else st.delta_e <- st.delta_e + d
      end;
      s := sc.next_at.(!s)
    done
  end

let[@inline] decay st p =
  if st.sc.decay_stamp.(p) = st.decay_epoch then st.sc.decay.(p) else 1.

(* Score the SWAP of each coupling edge [(p, p')] over [p]'s neighbours,
   keeping the best in [st]: the lowest H wins, ties to the least
   [(min, max)] edge — the first strict minimum in ascending edge order. An
   edge joining two front qubits is seen from both ends and scored from its
   lower one. A SWAP moves only the pairs on its two qubits, so each score
   is the step's totals plus their change; integer sums are exact, so the
   float scores equal a float fold's over every pair. *)
let rec score_edges st stamp p = function
  | [] -> ()
  | p' :: rest ->
    if st.sc.marked.(p') <> stamp || p < p' then begin
      let a = if p < p' then p else p' and b = if p < p' then p' else p in
      if not st.measured then measure st;
      st.delta_f <- 0;
      st.delta_e <- 0;
      shift st a b;
      shift st b a;
      let nf = float_of_int (if st.n_f > 1 then st.n_f else 1) in
      let ne = float_of_int (if st.n_e > 1 then st.n_e else 1) in
      let base =
        (float_of_int (st.total_f + st.delta_f) /. nf)
        +. (st.config.extended_weight
            *. float_of_int (st.total_e + st.delta_e)
            /. ne)
      in
      (* Float.max, inlined: decays are positive *)
      let da = decay st a and db = decay st b in
      let s = (if db > da then db else da) *. base in
      let bs = st.best.(0) in
      if
        st.best_a < 0 || s < bs
        || (s = bs && (a < st.best_a || (a = st.best_a && b < st.best_b)))
      then begin
        st.best.(0) <- s;
        st.best_a <- a;
        st.best_b <- b;
        st.best_df <- st.delta_f;
        st.best_de <- st.delta_e
      end
    end;
    score_edges st stamp p rest

(* The SWAP to apply, into [best_a]/[best_b]: the best over the edges
   incident to the front pairs' physical qubits. *)
let best_swap st =
  let coupling = Arch.Maqam.coupling st.maqam in
  let sc = st.sc in
  let stamp = next_stamp sc in
  for k = 0 to (2 * st.n_f) - 1 do
    sc.marked.(sc.pp.(k)) <- stamp
  done;
  st.best_a <- -1;
  for k = 0 to (2 * st.n_f) - 1 do
    score_edges st stamp sc.pp.(k) (Arch.Coupling.neighbors coupling sc.pp.(k))
  done;
  if st.best_a < 0 then
    raise (Stuck "SABRE: no SWAP candidate — disconnected device?")

let reset_decay st =
  st.decay_epoch <- next_stamp st.sc;
  st.swaps_since_reset <- 0

(* [decay.(p) +. decay_delta], with a reset decay read as 1: each qubit's
   decay runs through the same floats as when every reset refilled it. *)
let bump st p =
  let sc = st.sc in
  sc.decay.(p) <- decay st p +. st.config.decay_delta;
  sc.decay_stamp.(p) <- st.decay_epoch

let apply_swap st p1 p2 =
  if st.swap_budget <= 0 then
    raise (Stuck "SABRE: swap budget exhausted — unroutable input?");
  st.swap_budget <- st.swap_budget - 1;
  if st.emit then st.out_rev <- (Qc.Gate.swap p1 p2, true) :: st.out_rev;
  Arch.Layout.swap_physical_inplace st.layout p1 p2;
  bump st p1;
  bump st p2;
  st.swaps_since_reset <- st.swaps_since_reset + 1;
  if st.swaps_since_reset >= st.config.decay_reset then reset_decay st

(* The slots on [p]'s chain now sit on [q]. *)
let move_chain st p q =
  let sc = st.sc in
  if sc.pair_stamp.(p) = st.at_stamp then begin
    let s = ref sc.pair_at.(p) in
    while !s >= 0 do
      sc.pp.(!s) <- q;
      s := sc.next_at.(!s)
    done
  end

(* The distances of the pairs on [p]'s chain, as placed. *)
let remeasure_chain st p =
  let sc = st.sc in
  if sc.pair_stamp.(p) = st.at_stamp then begin
    let s = ref sc.pair_at.(p) in
    while !s >= 0 do
      sc.pd.(!s lsr 1) <- dist st sc.pp.(!s) sc.pp.(!s lxor 1);
      s := sc.next_at.(!s)
    done
  end

(* The measured step state after the SWAP of [a] and [b]: the pairs on
   either move with it, their distances and the totals change by the
   winner's deltas, and the two qubits' chains trade places. *)
let carry st a b =
  let sc = st.sc in
  move_chain st a b;
  move_chain st b a;
  remeasure_chain st a;
  remeasure_chain st b;
  let at = sc.pair_at.(a) and stamp = sc.pair_stamp.(a) in
  sc.pair_at.(a) <- sc.pair_at.(b);
  sc.pair_stamp.(a) <- sc.pair_stamp.(b);
  sc.pair_at.(b) <- at;
  sc.pair_stamp.(b) <- stamp;
  st.total_f <- st.total_f + st.best_df;
  st.total_e <- st.total_e + st.best_de

let swap_step st =
  if st.pairs_stale then begin
    collect_pairs st;
    place st
  end;
  best_swap st;
  let a = st.best_a and b = st.best_b in
  apply_swap st a b;
  carry st a b

let route_on sc ~emit ~reverse ~config ~maqam ~initial circuit ~n_physical
    ~n_logical =
  let n = load sc ~reverse circuit in
  let n_front = ref 0 in
  for i = 0 to n - 1 do
    if sc.pending.(i) = 0 then begin
      sc.front.(!n_front) <- i;
      incr n_front
    end
  done;
  let n_pairs = n_logical + Int.max 0 (Int.min config.extended_size n) in
  sc.marked <- grow sc.marked n_physical 0;
  sc.pair_at <- grow sc.pair_at n_physical 0;
  sc.pair_stamp <- grow sc.pair_stamp n_physical 0;
  sc.decay <- grow sc.decay n_physical 1.;
  sc.decay_stamp <- grow sc.decay_stamp n_physical 0;
  sc.next_at <- grow sc.next_at (2 * n_pairs) 0;
  sc.pl <- grow sc.pl (2 * n_pairs) 0;
  sc.pp <- grow sc.pp (2 * n_pairs) 0;
  sc.pd <- grow sc.pd n_pairs 0;
  let coupling = Arch.Maqam.coupling maqam in
  let st =
    {
      maqam;
      config;
      sc;
      n = n_physical;
      dist = Arch.Coupling.distance_table coupling;
      n_front = !n_front;
      released = !n_front;
      n_done = 0;
      layout = Arch.Layout.copy initial;
      emit;
      out_rev = [];
      decay_epoch = next_stamp sc;
      swaps_since_reset = 0;
      swap_budget = 10 * (n + 1) * (n_physical + 1);
      pairs_stale = true;
      measured = false;
      n_f = 0;
      n_e = 0;
      total_f = 0;
      total_e = 0;
      delta_f = 0;
      delta_e = 0;
      at_stamp = 0;
      best = [| 0. |];
      best_a = -1;
      best_b = -1;
      best_df = 0;
      best_de = 0;
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
  Schedule.Scratch.use scratch (fun sc ->
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

let timeline ?(config = default_config) ~maqam ~initial circuit =
  let tagged, final = route_tagged ~config ~maqam ~initial circuit in
  Schedule.Asap.timeline ~durations:(Arch.Maqam.durations maqam)
    ~n_physical:(Arch.Maqam.n_qubits maqam) ~initial ~final
    ~n_logical:(Qc.Circuit.n_qubits circuit) tagged

let run ?config ~maqam ~initial circuit =
  Schedule.Timeline.to_routed (timeline ?config ~maqam ~initial circuit)
