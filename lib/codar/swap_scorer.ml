(* Incremental SWAP candidate scoring (PR 6 tentpole).

   The seed router re-derived the candidate edge set and re-scored every
   candidate against the whole CF pair list after each inserted SWAP —
   O(candidates × pairs) per SWAP decision. This module maintains the same
   candidate set and the same [Hbasic] scores by repair:

   - [Hbasic] decomposes per pair: a SWAP (u,v) changes the distance of a
     CF pair only if the pair touches [u] or [v], and then by δ ∈ {-1,0,1}.
     A per-physical-qubit incidence index makes a candidate's score
     O(pairs incident to its two endpoints) to (re)compute.
   - A committed SWAP (x,y) invalidates exactly: candidates touching
     [x]/[y] (now lock-blocked), scores of candidates at the far endpoints
     of pairs that touched [x]/[y], and the justification of edges around
     qubits whose non-adjacent-pair count transitioned — everything else
     keeps its score. Repair, not regeneration.
   - Candidates live in a bucketed priority queue indexed by [Hbasic]
     (bounded by ±m for m pairs), with lazy deletion: stale entries are
     dropped when a bucket is read, so the best candidate is O(1) amortised
     to extract.
   - [Hfine] is {e never} delta-maintained: float accumulation order
     changes its bit pattern (ring devices have cos/sin coordinates), and
     routing must stay byte-identical to the seed router. Fine priorities
     are computed with {!Heuristic.fine_phys} — the seed fold, same order —
     and only for the candidates tied at the maximal [Hbasic], which is
     where the ≥5× cut in full evaluations comes from.

   All cycle state is epoch-stamped so [begin_cycle] is O(pairs), not
   O(device). Selection replicates the seed router's fold exactly: maximal
   [Hbasic], then maximal [Hfine], then the smallest [(min,max)] edge.

   PR 8: the bucket key is no longer raw [Hbasic] but the objective score
   [scale * Hbasic + bonus] (see {!Objective}). For the makespan objective
   [scale = 1] and [bonus = 0], so key = Hbasic and every byte of the
   routed output is unchanged. Other objectives refine the ordering inside
   an Hbasic class: since [0 <= bonus < scale] the decomposition is unique
   and all members of one bucket share both Hbasic and bonus, so the
   repair machinery above carries over verbatim — a bonus change reprices
   an edge exactly like an Hbasic change. The built-in bonuses read only
   endpoint incidence and pair distances, both of which the commit repair
   set already covers; an objective whose bonus reads wider state sets
   [full_rescore] and every live candidate is repriced after each commit. *)

(* PR 10: distances and edge ids are provider-shaped. On dense couplings
   the scorer keeps the PR 6 layout byte-for-byte — flat distance table,
   edge id [u*n + v], n² per-edge slots. On sparse couplings it reads the
   memoised per-source rows and numbers edges by their rank in the sorted
   edge list (CSR), so per-edge state is O(E), not O(V²). Both numberings
   are lexicographic in [(u, v)], so "smallest edge id" tie-breaks select
   the same physical edge and routed output is identical across
   backends. *)

type dsource =
  | Flat of int array  (* Coupling.distance_table: flat row-major, live *)
  | Rows of Arch.Coupling.t  (* read through Coupling.distance_row *)

type eindex =
  | Square of int  (* edge id = u*n + v, u < v: dense, O(1) both ways *)
  | Csr of {
      eoff : int array;  (* eoff.(u) .. eoff.(u+1)-1: edges with lo = u *)
      eu : int array;  (* edge id -> lower endpoint *)
      ev : int array;  (* edge id -> higher endpoint (sorted within u) *)
    }

(* Every per-cycle structure is an int array: the scorer allocates only
   when one of them grows (more pairs, a fuller bucket or active set than
   any earlier cycle), so a cycle's work is loads and stores. *)
type t = {
  maqam : Arch.Maqam.t;
  n : int;
  dsrc : dsource;
  eidx : eindex;
  neighbors : int array array;
  coords : (float * float) array option;
  use_fine : bool;
  stats : Stats.t;
  locks : int array;  (* shared with the remapper, read-only here *)
  (* ---- objective (PR 8), fixed for the scorer's lifetime ---- *)
  scale : int;
  bonus_bound : int;
  obj_bonus : Objective.ctx -> u:int -> v:int -> int;
  full_rescore : bool;
  mutable octx : Objective.ctx;  (* closes over [t]; set once in [create] *)
  mutable issue_min : int;  (* O.issue_min octx, computed once in [create] *)
  (* ---- per-cycle state, all epoch-stamped ---- *)
  mutable epoch : int;
  mutable time : int;
  mutable m : int;  (* CF pair count this cycle *)
  mutable pa : int array;  (* pair endpoints (physical), mutated on commit *)
  mutable pb : int array;
  mutable pnonadj : bool array;
  mutable pair_seen : int array;  (* commit-token dedup *)
  (* per phys qubit: its incident pairs as an intrusive list of nodes,
     node [2k] for pair [k]'s [pa] side and [2k+1] for its [pb] side,
     newest first *)
  inc_head : int array;
  inc_stamp : int array;
  mutable inc_next : int array;  (* per node *)
  touch : int array;  (* per phys qubit: # incident non-adjacent pairs *)
  touch_stamp : int array;
  seen : int array;  (* per phys qubit: token-stamped dedup marker *)
  (* begin_cycle/commit scratch, per phys qubit at most once *)
  trans_q : int array;
  trans_old : int array;
  mutable ntrans : int;
  zs : int array;  (* seeds, then far endpoints *)
  mutable nz : int;
  (* ---- per-edge state (ids per [eidx]) ---- *)
  score : int array;  (* objective score: scale * sbasic + bonus *)
  sbasic : int array;  (* the Hbasic component alone *)
  in_set : bool array;
  edge_stamp : int array;
  visit : int array;  (* token-stamped dedup for extraction/iteration;
                         sized >= n so it doubles as a qubit marker *)
  mutable token : int;
  mutable active : int array;  (* edges activated this cycle (may repeat) *)
  mutable n_active : int;
  mutable ties : int array;  (* force_best scratch *)
  (* bucket queue: bucket [idx] (= score + scale * m) holds
     [bk.(idx).(0 .. bk_len.(idx) - 1)] *)
  mutable bk : int array array;
  mutable bk_len : int array;
  mutable qmax : int;  (* highest possibly non-empty bucket *)
}

let dummy_ctx =
  {
    Objective.n = 0;
    dist_row = (fun _ -> [||]);
    incident = (fun _ -> []);
    pair_fst = (fun _ -> 0);
    pair_snd = (fun _ -> 0);
    calibration = None;
    swap_cycles = 1;
  }

let inc_first t p = if t.inc_stamp.(p) = t.epoch then t.inc_head.(p) else -1

(* The objective's view of qubit [p]'s incident pairs, newest first. *)
let rec incident_list t node =
  if node < 0 then [] else (node lsr 1) :: incident_list t t.inc_next.(node)

let create ?(objective = Objective.makespan) ~maqam ~stats ~use_fine ~locks () =
  let module O = (val objective : Objective.S) in
  if not (0 <= O.bonus_bound && O.bonus_bound < O.scale) then
    invalid_arg
      (Fmt.str "Swap_scorer.create: objective %s violates 0 <= bonus_bound \
                < scale" O.name);
  let coupling = Arch.Maqam.coupling maqam in
  let n = Arch.Coupling.n_qubits coupling in
  let dsrc, eidx =
    match Arch.Coupling.backend coupling with
    | Arch.Coupling.Dense ->
      (Flat (Arch.Coupling.distance_table coupling), Square n)
    | Arch.Coupling.Sparse ->
      (* edges are normalised (lo, hi) and lex-sorted, so their list rank
         is a lexicographic edge numbering: eoff groups by the lower
         endpoint, ev ascends inside each group *)
      let edges = Array.of_list (Arch.Coupling.edges coupling) in
      let m = Array.length edges in
      let eu = Array.make m 0 and ev = Array.make m 0 in
      let eoff = Array.make (n + 1) 0 in
      Array.iteri
        (fun i (u, v) ->
          eu.(i) <- u;
          ev.(i) <- v;
          eoff.(u + 1) <- eoff.(u + 1) + 1)
        edges;
      for q = 0 to n - 1 do
        eoff.(q + 1) <- eoff.(q) + eoff.(q + 1)
      done;
      (Rows coupling, Csr { eoff; eu; ev })
  in
  let edge_slots = match eidx with Square n -> n * n | Csr c -> Array.length c.eu in
  (* [visit] doubles as a per-qubit marker in [commit], so it must cover
     qubit ids even when the edge count is below n (trees) *)
  let visit_slots = max edge_slots n in
  let t =
    {
      maqam;
      n;
      dsrc;
      eidx;
      neighbors =
        Array.init n (fun p ->
            Array.of_list (Arch.Coupling.neighbors coupling p));
      coords = Arch.Coupling.coords coupling;
      use_fine = use_fine && O.use_fine;
      stats;
      locks;
      scale = O.scale;
      bonus_bound = O.bonus_bound;
      obj_bonus = O.bonus;
      full_rescore = O.full_rescore;
      octx = dummy_ctx;
      issue_min = 0;
      epoch = 0;
      time = 0;
      m = 0;
      pa = [||];
      pb = [||];
      pnonadj = [||];
      pair_seen = [||];
      inc_head = Array.make n (-1);
      inc_stamp = Array.make n (-1);
      inc_next = [||];
      touch = Array.make n 0;
      touch_stamp = Array.make n (-1);
      seen = Array.make n 0;
      trans_q = Array.make n 0;
      trans_old = Array.make n 0;
      ntrans = 0;
      zs = Array.make n 0;
      nz = 0;
      score = Array.make edge_slots 0;
      sbasic = Array.make edge_slots 0;
      in_set = Array.make edge_slots false;
      edge_stamp = Array.make edge_slots (-1);
      visit = Array.make visit_slots 0;
      token = 0;
      active = Array.make 16 0;
      n_active = 0;
      ties = Array.make 16 0;
      bk = [||];
      bk_len = [||];
      qmax = -1;
    }
  in
  t.octx <-
    {
      Objective.n;
      dist_row = Arch.Coupling.distance_row coupling;
      incident = (fun p -> incident_list t (inc_first t p));
      pair_fst = (fun k -> t.pa.(k));
      pair_snd = (fun k -> t.pb.(k));
      calibration = Arch.Calibration.for_durations (Arch.Maqam.durations maqam);
      swap_cycles = Arch.Durations.swap (Arch.Maqam.durations maqam);
    };
  t.issue_min <- O.issue_min t.octx;
  t

let issue_min t = t.issue_min

(* Only ever called on coupling edges (u, v adjacent). Csr: a
   degree-bounded scan of u's higher-neighbour slice. *)
let rec csr_scan ev u v i hi =
  if i >= hi then
    invalid_arg (Fmt.str "Swap_scorer.eid: (%d,%d) is not an edge" u v)
  else if ev.(i) = v then i
  else csr_scan ev u v (i + 1) hi

let eid t u v =
  let lo = if u < v then u else v and hi = if u < v then v else u in
  match t.eidx with
  | Square n -> (lo * n) + hi
  | Csr c -> csr_scan c.ev lo hi c.eoff.(lo) c.eoff.(lo + 1)

let edge_u t e = match t.eidx with Square n -> e / n | Csr c -> c.eu.(e)
let edge_v t e = match t.eidx with Square n -> e mod n | Csr c -> c.ev.(e)
let basic t e = t.sbasic.(e)
let alive t e = t.edge_stamp.(e) = t.epoch && t.in_set.(e)
let lock_free t p = t.locks.(p) <= t.time

let touch_get t p = if t.touch_stamp.(p) = t.epoch then t.touch.(p) else 0

let touch_set t p v =
  t.touch.(p) <- v;
  t.touch_stamp.(p) <- t.epoch

let adjacent t a b = Arch.Maqam.adjacent t.maqam a b

(* Σ over the pairs on [u]'s incidence list, bar those whose other
   endpoint is [v], of how much closer moving [u] to [v] brings the
   pair's other endpoint. *)
let rec gain_flat t dist u v acc node =
  if node < 0 then acc
  else begin
    let k = node lsr 1 in
    let o = if t.pa.(k) = u then t.pb.(k) else t.pa.(k) in
    let acc =
      if o <> v then acc + dist.((u * t.n) + o) - dist.((v * t.n) + o)
      else acc
    in
    gain_flat t dist u v acc t.inc_next.(node)
  end

(* Point queries, not row fetches: a big device's routing working set
   exceeds the bounded row cache, so materialising whole rows here would
   recompute O(V)-sized BFS per score — the early-exit point query costs
   only the ball around the pair. *)
let rec gain_rows t c u v acc node =
  if node < 0 then acc
  else begin
    let k = node lsr 1 in
    let o = if t.pa.(k) = u then t.pb.(k) else t.pa.(k) in
    let acc =
      if o <> v then
        acc + Arch.Coupling.distance_raw c u o
        - Arch.Coupling.distance_raw c v o
      else acc
    in
    gain_rows t c u v acc t.inc_next.(node)
  end

(* Hbasic of swapping (u,v): only pairs incident to u or v contribute; the
   pair (u,v) itself (both endpoints swapped) contributes 0 and is
   skipped. *)
let compute_basic t u v =
  t.stats.Stats.swap_rescores <- t.stats.Stats.swap_rescores + 1;
  match t.dsrc with
  | Flat dist ->
    gain_flat t dist v u (gain_flat t dist u v 0 (inc_first t u)) (inc_first t v)
  | Rows c ->
    gain_rows t c v u (gain_rows t c u v 0 (inc_first t u)) (inc_first t v)

(* Objective score of (u,v) given its Hbasic. Bonus-free objectives
   (makespan, t2) have [bonus_bound = 0] and skip the call entirely, so
   their hot path is byte-for-byte the PR 6 one. *)
(* The bonus always sees the canonical (min, max) orientation — activation
   reaches here as (seed, neighbour) in either order, and an asymmetric
   objective must score an edge identically on both paths. *)
let score_of t u v basic =
  if t.bonus_bound = 0 then basic
  else (t.scale * basic) + t.obj_bonus t.octx ~u:(min u v) ~v:(max u v)

(* [a] with room for index [i], its first [len] entries kept. *)
let room a len i =
  if i < Array.length a then a
  else begin
    let a' = Array.make (max 16 (2 * (i + 1))) 0 in
    Array.blit a 0 a' 0 len;
    a'
  end

let push t e score =
  let idx = score + (t.scale * t.m) in
  let len = t.bk_len.(idx) in
  let b = room t.bk.(idx) len len in
  b.(len) <- e;
  t.bk.(idx) <- b;
  t.bk_len.(idx) <- len + 1;
  if idx > t.qmax then t.qmax <- idx

let try_activate t u v =
  let e = eid t u v in
  if
    (not (alive t e))
    && (touch_get t u > 0 || touch_get t v > 0)
    && lock_free t u && lock_free t v
  then begin
    let basic = compute_basic t u v in
    let score = score_of t u v basic in
    t.sbasic.(e) <- basic;
    t.score.(e) <- score;
    t.in_set.(e) <- true;
    t.edge_stamp.(e) <- t.epoch;
    let a = room t.active t.n_active t.n_active in
    a.(t.n_active) <- e;
    t.active <- a;
    t.n_active <- t.n_active + 1;
    t.stats.Stats.swap_candidates <- t.stats.Stats.swap_candidates + 1;
    push t e score
  end

let activate_around t p =
  let nbs = t.neighbors.(p) in
  for i = 0 to Array.length nbs - 1 do
    try_activate t p nbs.(i)
  done

let deactivate t e = if alive t e then t.in_set.(e) <- false

let rescore t e =
  let u = edge_u t e and v = edge_v t e in
  let basic = compute_basic t u v in
  let score = score_of t u v basic in
  if score <> t.score.(e) then begin
    t.sbasic.(e) <- basic;
    t.score.(e) <- score;
    push t e score
  end

let ensure_pair_capacity t m =
  if Array.length t.pa < m then begin
    let cap = max 16 (max m (2 * Array.length t.pa)) in
    t.pa <- Array.make cap 0;
    t.pb <- Array.make cap 0;
    t.pnonadj <- Array.make cap false;
    t.pair_seen <- Array.make cap 0;
    t.inc_next <- Array.make (2 * cap) (-1)
  end

let inc_push t p node =
  t.inc_next.(node) <- inc_first t p;
  t.inc_head.(p) <- node;
  t.inc_stamp.(p) <- t.epoch

(* One more non-adjacent pair on qubit [p]; a qubit that gains its first
   is a seed — candidate edges sit only around those. *)
let touch_up t p c =
  if c = 0 then begin
    t.zs.(t.nz) <- p;
    t.nz <- t.nz + 1
  end;
  touch_set t p (c + 1)

let begin_cycle t ~time ~pairs ~n_pairs =
  t.epoch <- t.epoch + 1;
  t.time <- time;
  t.n_active <- 0;
  t.qmax <- -1;
  let m = n_pairs in
  ensure_pair_capacity t m;
  t.m <- m;
  (* score range: [-scale*m, scale*m + bonus_bound] *)
  let n_buckets = (2 * t.scale * m) + t.bonus_bound + 1 in
  if Array.length t.bk < n_buckets then begin
    let cap = max n_buckets (2 * Array.length t.bk) in
    let bk = Array.make cap [||] in
    Array.blit t.bk 0 bk 0 (Array.length t.bk);
    t.bk <- bk;
    t.bk_len <- Array.make cap 0
  end
  else Array.fill t.bk_len 0 n_buckets 0;
  (* register pairs; collect the seeds *)
  t.nz <- 0;
  for k = 0 to m - 1 do
    let a = pairs.(2 * k) and b = pairs.((2 * k) + 1) in
    t.pa.(k) <- a;
    t.pb.(k) <- b;
    inc_push t a (2 * k);
    inc_push t b ((2 * k) + 1);
    let na = not (adjacent t a b) in
    t.pnonadj.(k) <- na;
    if na then begin
      let tb = touch_get t b in
      touch_up t a (touch_get t a);
      touch_up t b (if a = b then tb + 1 else tb)
    end
  done;
  (* activate around the seeds, newest first *)
  for i = t.nz - 1 downto 0 do
    activate_around t t.zs.(i)
  done

(* Hfine of swapping (u,v) — the seed fold over the pairs in front order,
   so its bits equal [Heuristic.evaluate_phys]'s. Only tie-breaks pay
   for it. *)
let fine_of t e =
  t.stats.Stats.heuristic_evals <- t.stats.Stats.heuristic_evals + 1;
  Heuristic.fine_phys ~coords:t.coords ~pa:t.pa ~pb:t.pb ~n_pairs:t.m
    ~u:(edge_u t e) ~v:(edge_v t e)

let rec min_edge es i len acc =
  if i >= len then acc
  else min_edge es (i + 1) len (if es.(i) < acc then es.(i) else acc)

(* Winner among [es.(0 .. len-1)] (all sharing the maximal Hbasic):
   maximal Hfine, then smallest edge id — exactly the seed fold's
   ascending-order first-strict-max. *)
let break_ties t es len =
  if len = 1 then es.(0)
  else if not t.use_fine then min_edge es 0 len max_int
  else begin
    let be = ref es.(0) in
    let bf = ref (fine_of t !be) in
    for i = 1 to len - 1 do
      let e = es.(i) in
      let f = fine_of t e in
      if f > !bf || (f = !bf && e < !be) then begin
        bf := f;
        be := e
      end
    done;
    !be
  end

(* Keep the live members of bucket [idx] that are current at its score
   and not yet seen this extraction, in order, in place. *)
let filter_bucket t idx tok =
  let b = t.bk.(idx) and len = t.bk_len.(idx) in
  let target = idx - (t.scale * t.m) in
  let j = ref 0 in
  for i = 0 to len - 1 do
    let e = b.(i) in
    if alive t e && t.score.(e) = target && t.visit.(e) <> tok then begin
      t.visit.(e) <- tok;
      b.(!j) <- e;
      incr j
    end
  done;
  t.bk_len.(idx) <- !j;
  !j

let rec descend t idx tok =
  if idx < 0 then -1
  else begin
    let len = filter_bucket t idx tok in
    if len = 0 then descend t (idx - 1) tok
    else begin
      t.qmax <- idx;
      let es = t.bk.(idx) in
      (* same score => same Hbasic (unique decomposition). A best below
         the issue threshold never issues (the CODAR rule, generalised to
         the objective's [issue_min]), so its tie-break is
         observationally irrelevant — skip the fine evaluations the
         reference burned on every cycle's final, rejected iteration and
         return the smallest edge directly. *)
      if t.sbasic.(es.(0)) > t.issue_min then break_ties t es len
      else min_edge es 0 len max_int
    end
  end

let best t =
  if t.qmax < 0 then -1
  else begin
    t.token <- t.token + 1;
    let e =
      descend t (min t.qmax ((2 * t.scale * t.m) + t.bonus_bound)) t.token
    in
    if e < 0 then t.qmax <- -1;
    e
  end

let deactivate_around t p =
  let nbs = t.neighbors.(p) in
  for i = 0 to Array.length nbs - 1 do
    deactivate t (eid t p nbs.(i))
  done

let rescore_around t z =
  let nbs = t.neighbors.(z) in
  for i = 0 to Array.length nbs - 1 do
    let e = eid t z nbs.(i) in
    if alive t e then rescore t e
  done

(* Edges around [p], whose last non-adjacent pair left, lose their
   justification unless the far endpoint still has one. *)
let unjustify_around t p =
  let nbs = t.neighbors.(p) in
  for i = 0 to Array.length nbs - 1 do
    let nb = nbs.(i) in
    let e = eid t p nb in
    if alive t e && touch_get t nb = 0 then deactivate t e
  done

(* Commit bookkeeping, with [x]/[y] the committed SWAP and [tok] its
   token: [record_old] notes a qubit's non-adjacent count before its
   first change, [add_z] a far endpoint to rescore around. *)
let record_old t tok p =
  if t.seen.(p) <> tok then begin
    t.seen.(p) <- tok;
    t.trans_q.(t.ntrans) <- p;
    t.trans_old.(t.ntrans) <- touch_get t p;
    t.ntrans <- t.ntrans + 1
  end

(* [visit] is sized >= max(edge ids, n) and extraction tokens differ, so
   it doubles as the qubit dedup here *)
let add_z t x y tok p =
  if p <> x && p <> y && t.visit.(p) <> tok then begin
    t.visit.(p) <- tok;
    t.zs.(t.nz) <- p;
    t.nz <- t.nz + 1
  end

let mapped x y p = if p = x then y else if p = y then x else p

(* Remap the pairs on an incidence list of [x] or [y], from [node] on. *)
let rec process t x y tok node =
  if node >= 0 then begin
    let k = node lsr 1 in
    if t.pair_seen.(k) <> tok then begin
      t.pair_seen.(k) <- tok;
      let a = t.pa.(k) and b = t.pb.(k) in
      let a' = mapped x y a and b' = mapped x y b in
      let oldna = t.pnonadj.(k) in
      let newna = not (adjacent t a' b') in
      t.pa.(k) <- a';
      t.pb.(k) <- b';
      t.pnonadj.(k) <- newna;
      if oldna then begin
        record_old t tok a;
        record_old t tok b;
        touch_set t a (touch_get t a - 1);
        touch_set t b (touch_get t b - 1)
      end;
      if newna then begin
        record_old t tok a';
        record_old t tok b';
        touch_set t a' (touch_get t a' + 1);
        touch_set t b' (touch_get t b' + 1)
      end;
      add_z t x y tok a;
      add_z t x y tok b;
      add_z t x y tok a';
      add_z t x y tok b'
    end;
    process t x y tok t.inc_next.(node)
  end

(* The SWAP (x,y) was emitted (locks already advanced past [t.time]) —
   repair the candidate set. Must be called after the remapper's
   [issue_swap], never before. *)
let commit t x y =
  t.token <- t.token + 1;
  let tok = t.token in
  (* 1. x and y are lock-blocked for the rest of the cycle *)
  deactivate_around t x;
  deactivate_around t y;
  (* 2. remap the pairs touching x or y; collect justification transitions
     and the far endpoints whose candidates need rescoring *)
  t.ntrans <- 0;
  t.nz <- 0;
  process t x y tok (inc_first t x);
  process t x y tok (inc_first t y);
  (* every pair endpoint x is now y and vice versa: the incidence lists
     swap wholesale *)
  let ix = inc_first t x and iy = inc_first t y in
  t.inc_head.(x) <- iy;
  t.inc_stamp.(x) <- t.epoch;
  t.inc_head.(y) <- ix;
  t.inc_stamp.(y) <- t.epoch;
  (* 3. scores of surviving candidates at far endpoints changed (newest
     first) *)
  for i = t.nz - 1 downto 0 do
    rescore_around t t.zs.(i)
  done;
  (* 4. justification transitions: activation around qubits that gained
     their first non-adjacent pair, deactivation where the last one left *)
  for i = t.ntrans - 1 downto 0 do
    let p = t.trans_q.(i) and old = t.trans_old.(i) in
    let now = touch_get t p in
    if old = 0 && now > 0 then activate_around t p
    else if old > 0 && now = 0 then unjustify_around t p
  done;
  (* 5. objectives that opted out of the repair rule: reprice every live
     candidate (rescore is push-on-change, so unchanged edges cost one
     recompute and no queue traffic) *)
  if t.full_rescore then begin
    t.token <- t.token + 1;
    let tok = t.token in
    for i = t.n_active - 1 downto 0 do
      let e = t.active.(i) in
      if alive t e && t.visit.(e) <> tok then begin
        t.visit.(e) <- tok;
        rescore t e
      end
    done
  end

(* Distance gain of swapping edge [e] for the pair (a, b). *)
let pair_gain t a b e =
  let u = edge_u t e and v = edge_v t e in
  match t.dsrc with
  | Flat dist ->
    let n = t.n in
    dist.((a * n) + b) - dist.((mapped u v a * n) + mapped u v b)
  | Rows c ->
    (* skip the lookup entirely for edges touching neither endpoint —
       those cannot move the pair, so their gain is 0 by definition (at
       most degree(a)+degree(b) point queries per call) *)
    if a <> u && a <> v && b <> u && b <> v then 0
    else
      Arch.Coupling.distance_raw c a b
      - Arch.Coupling.distance_raw c (mapped u v a) (mapped u v b)

(* Forced-SWAP selection (deadlock escape): maximal distance gain for the
   oldest pending pair, then the regular objective-score priority (which
   is exactly (Hbasic, Hfine) for makespan), then the smallest edge — the
   seed fold's order. Reuses this cycle's candidate state: force_swap is
   only reached when nothing was issued or swapped since [begin_cycle]. *)
let force_best t =
  t.token <- t.token + 1;
  let tok = t.token in
  let bg = ref min_int and bs = ref min_int and nt = ref 0 in
  (* maximal (gain, score) first, over the active set newest first (the
     ties' order is the fold's); Hfine only among the survivors *)
  for i = t.n_active - 1 downto 0 do
    let e = t.active.(i) in
    if alive t e && t.visit.(e) <> tok then begin
      t.visit.(e) <- tok;
      let g = if t.m = 0 then 0 else pair_gain t t.pa.(0) t.pb.(0) e in
      let score = t.score.(e) in
      if !nt = 0 || g > !bg || (g = !bg && score > !bs) then begin
        bg := g;
        bs := score;
        nt := 0
      end;
      if g = !bg && score = !bs then begin
        t.ties <- room t.ties !nt !nt;
        t.ties.(!nt) <- e;
        incr nt
      end
    end
  done;
  if !nt = 0 then -1 else break_ties t t.ties !nt

let candidates t =
  t.token <- t.token + 1;
  let tok = t.token in
  let out = ref [] in
  for i = 0 to t.n_active - 1 do
    let e = t.active.(i) in
    if alive t e && t.visit.(e) <> tok then begin
      t.visit.(e) <- tok;
      out := ((edge_u t e, edge_v t e), t.score.(e)) :: !out
    end
  done;
  List.sort compare !out
