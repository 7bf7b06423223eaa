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
   The route's issue threshold only decides whether a best candidate's
   tie-break is worth computing. *)

(* Distances are read from the coupling's flat table, and neighbours and
   edge ids from its flat edge index ({!Arch.Coupling.index}), which the
   device builds once. Edges are numbered by their rank in the sorted
   edge list, so per-edge state has one slot per coupling edge, and the
   numbering is lexicographic in [(u, v)]: a "smallest edge id"
   tie-break selects the lexicographically smallest physical edge. *)

(* Every per-cycle structure is an int array: the scorer allocates only
   when one of them grows (more pairs, a fuller bucket or active set than
   any earlier cycle), so a cycle's work is loads and stores. The arrays
   also outlive a route: [load] points the scorer at the next route's
   device and threshold and keeps every array that is large enough. The
   epoch and the tokens only grow, so stamps of earlier routes never
   match. *)
type t = {
  mutable n : int;
  mutable dist : int array;  (* {!Arch.Coupling.distance_table} *)
  mutable index : Arch.Coupling.index;
  mutable coords : (float * float) array option;
  mutable use_fine : bool;
  mutable stats : Stats.t;
  mutable locks : int array;  (* shared with the remapper, read-only here *)
  mutable issue_min : int;  (* the route's issue threshold *)
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
  mutable inc_head : int array;
  mutable inc_stamp : int array;
  mutable inc_next : int array;  (* per node *)
  mutable touch : int array;
      (* per phys qubit: # incident non-adjacent pairs *)
  mutable touch_stamp : int array;
  mutable seen : int array;  (* per phys qubit: token-stamped dedup marker *)
  (* begin_cycle/commit scratch, per phys qubit at most once *)
  mutable trans_q : int array;
  mutable trans_old : int array;
  mutable ntrans : int;
  mutable zs : int array;  (* seeds, then far endpoints *)
  mutable nz : int;
  (* ---- per-edge state (ids per [index]) ---- *)
  mutable sbasic : int array;  (* maintained Hbasic *)
  mutable in_set : bool array;
  mutable edge_stamp : int array;
  mutable visit : int array;  (* token-stamped dedup for extraction/iteration;
                                 sized >= n so it doubles as a qubit marker *)
  mutable token : int;
  mutable active : int array;  (* edges activated this cycle (may repeat) *)
  mutable n_active : int;
  mutable ties : int array;  (* force_best scratch *)
  (* bucket queue: bucket [idx] (= Hbasic + m) holds
     [bk.(idx).(0 .. bk_len.(idx) - 1)] *)
  mutable bk : int array array;
  mutable bk_len : int array;
  mutable qmax : int;  (* highest possibly non-empty bucket *)
}

let no_index =
  { Arch.Coupling.off = [| 0 |]; nbr = [||]; eid = [||]; eu = [||]; ev = [||] }

(* never written: [load] installs the route's counters before any use *)
let dummy_stats = Stats.create ()

let inc_first t p = if t.inc_stamp.(p) = t.epoch then t.inc_head.(p) else -1

let empty () =
  {
    n = 0;
    dist = [||];
    index = no_index;
    coords = None;
    use_fine = false;
    stats = dummy_stats;
    locks = [||];
    issue_min = 0;
    epoch = 0;
    time = 0;
    m = 0;
    pa = [||];
    pb = [||];
    pnonadj = [||];
    pair_seen = [||];
    inc_head = [||];
    inc_stamp = [||];
    inc_next = [||];
    touch = [||];
    touch_stamp = [||];
    seen = [||];
    trans_q = [||];
    trans_old = [||];
    ntrans = 0;
    zs = [||];
    nz = 0;
    sbasic = [||];
    in_set = [||];
    edge_stamp = [||];
    visit = [||];
    token = 0;
    active = Array.make 16 0;
    n_active = 0;
    ties = Array.make 16 0;
    bk = [||];
    bk_len = [||];
    qmax = -1;
  }

(* Room for [len] per-qubit or per-edge entries in arrays of current
   capacity [cap]. *)
let grown cap len = Int.max len (2 * cap)

let load t ~issue_min ~maqam ~stats ~use_fine ~locks () =
  let coupling = Arch.Maqam.coupling maqam in
  let n = Arch.Coupling.n_qubits coupling in
  let index = Arch.Coupling.index coupling in
  if Array.length t.inc_head < n then begin
    let cap = grown (Array.length t.inc_head) n in
    t.inc_head <- Array.make cap (-1);
    t.inc_stamp <- Array.make cap (-1);
    t.touch <- Array.make cap 0;
    t.touch_stamp <- Array.make cap (-1);
    t.seen <- Array.make cap 0;
    t.trans_q <- Array.make cap 0;
    t.trans_old <- Array.make cap 0;
    t.zs <- Array.make cap 0
  end;
  (* [visit] doubles as a per-qubit marker in [commit], so it must cover
     qubit ids even when the edge count is below n (trees) *)
  let edge_slots = Int.max (Array.length index.Arch.Coupling.eu) n in
  if Array.length t.sbasic < edge_slots then begin
    let cap = grown (Array.length t.sbasic) edge_slots in
    t.sbasic <- Array.make cap 0;
    t.in_set <- Array.make cap false;
    t.edge_stamp <- Array.make cap (-1);
    t.visit <- Array.make cap 0
  end;
  t.n <- n;
  t.dist <- Arch.Coupling.distance_table coupling;
  t.index <- index;
  t.coords <- Arch.Coupling.coords coupling;
  t.use_fine <- use_fine;
  t.stats <- stats;
  t.locks <- locks;
  t.issue_min <- issue_min;
  (* nothing of an earlier route is current *)
  t.epoch <- t.epoch + 1;
  t.m <- 0;
  t.n_active <- 0;
  t.qmax <- -1

(* Drop the route's device and counters; the arrays stay. *)
let clear t =
  t.dist <- [||];
  t.index <- no_index;
  t.coords <- None;
  t.stats <- dummy_stats;
  t.locks <- [||]

let words t =
  (8 * Array.length t.inc_head)
  + (4 * Array.length t.sbasic)
  + (4 * Array.length t.pa)
  + Array.length t.inc_next + Array.length t.active + Array.length t.ties
  + Array.length t.bk + Array.length t.bk_len
  + Array.fold_left (fun acc b -> acc + Array.length b) 0 t.bk

let edge_u t e = t.index.Arch.Coupling.eu.(e)
let edge_v t e = t.index.Arch.Coupling.ev.(e)
let basic t e = t.sbasic.(e)
let alive t e = t.edge_stamp.(e) = t.epoch && t.in_set.(e)
let lock_free t p = t.locks.(p) <= t.time

let touch_get t p = if t.touch_stamp.(p) = t.epoch then t.touch.(p) else 0

let touch_set t p v =
  t.touch.(p) <- v;
  t.touch_stamp.(p) <- t.epoch

(* An edge is a pair at distance 1: one table load. *)
let[@inline] adjacent t a b = t.dist.((a * t.n) + b) = 1

(* Σ over the pairs on [u]'s incidence list, bar those whose other
   endpoint is [v], of how much closer moving [u] to [v] brings the
   pair's other endpoint. *)
let rec gain t dist u v acc node =
  if node < 0 then acc
  else begin
    let k = node lsr 1 in
    let o = if t.pa.(k) = u then t.pb.(k) else t.pa.(k) in
    let acc =
      if o <> v then acc + dist.((u * t.n) + o) - dist.((v * t.n) + o)
      else acc
    in
    gain t dist u v acc t.inc_next.(node)
  end

(* Hbasic of swapping (u,v): only pairs incident to u or v contribute; the
   pair (u,v) itself (both endpoints swapped) contributes 0 and is
   skipped. *)
let compute_basic t u v =
  t.stats.Stats.swap_rescores <- t.stats.Stats.swap_rescores + 1;
  let dist = t.dist in
  gain t dist v u (gain t dist u v 0 (inc_first t u)) (inc_first t v)

(* [a] with room for index [i], its first [len] entries kept. *)
let room a len i =
  if i < Array.length a then a
  else begin
    let a' = Array.make (Int.max 16 (2 * (i + 1))) 0 in
    Array.blit a 0 a' 0 len;
    a'
  end

let push t e basic =
  let idx = basic + t.m in
  let len = t.bk_len.(idx) in
  let b = room t.bk.(idx) len len in
  b.(len) <- e;
  t.bk.(idx) <- b;
  t.bk_len.(idx) <- len + 1;
  if idx > t.qmax then t.qmax <- idx

(* [e] is the edge (u, v) *)
let try_activate t u v e =
  if
    (not (alive t e))
    && (touch_get t u > 0 || touch_get t v > 0)
    && lock_free t u && lock_free t v
  then begin
    let basic = compute_basic t u v in
    t.sbasic.(e) <- basic;
    t.in_set.(e) <- true;
    t.edge_stamp.(e) <- t.epoch;
    let a = room t.active t.n_active t.n_active in
    a.(t.n_active) <- e;
    t.active <- a;
    t.n_active <- t.n_active + 1;
    t.stats.Stats.swap_candidates <- t.stats.Stats.swap_candidates + 1;
    push t e basic
  end

let activate_around t p =
  let { Arch.Coupling.off; nbr; eid; _ } = t.index in
  for i = off.(p) to off.(p + 1) - 1 do
    try_activate t p nbr.(i) eid.(i)
  done

let deactivate t e = if alive t e then t.in_set.(e) <- false

let rescore t e =
  let u = edge_u t e and v = edge_v t e in
  let basic = compute_basic t u v in
  if basic <> t.sbasic.(e) then begin
    t.sbasic.(e) <- basic;
    push t e basic
  end

let ensure_pair_capacity t m =
  if Array.length t.pa < m then begin
    let cap = Int.max 16 (Int.max m (2 * Array.length t.pa)) in
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
  (* Hbasic range: [-m, m] *)
  let n_buckets = (2 * m) + 1 in
  if Array.length t.bk < n_buckets then begin
    let cap = Int.max n_buckets (2 * Array.length t.bk) in
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

let rec min_edge (es : int array) i len acc =
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

(* Keep the live members of bucket [idx] that are current at its Hbasic
   and not yet seen this extraction, in order, in place. *)
let filter_bucket t idx tok =
  let b = t.bk.(idx) and len = t.bk_len.(idx) in
  let target = idx - t.m in
  let j = ref 0 in
  for i = 0 to len - 1 do
    let e = b.(i) in
    if alive t e && t.sbasic.(e) = target && t.visit.(e) <> tok then begin
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
      (* A best at or below the issue threshold never issues (the CODAR
         rule, generalised to the route's [issue_min]), so its tie-break
         is observationally irrelevant — skip the fine evaluations the
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
    let e = descend t (Int.min t.qmax (2 * t.m)) t.token in
    if e < 0 then t.qmax <- -1;
    e
  end

let deactivate_around t p =
  let { Arch.Coupling.off; eid; _ } = t.index in
  for i = off.(p) to off.(p + 1) - 1 do
    deactivate t eid.(i)
  done

let rescore_around t z =
  let { Arch.Coupling.off; eid; _ } = t.index in
  for i = off.(z) to off.(z + 1) - 1 do
    let e = eid.(i) in
    if alive t e then rescore t e
  done

(* Edges around [p], whose last non-adjacent pair left, lose their
   justification unless the far endpoint still has one. *)
let unjustify_around t p =
  let { Arch.Coupling.off; nbr; eid; _ } = t.index in
  for i = off.(p) to off.(p + 1) - 1 do
    let e = eid.(i) in
    if alive t e && touch_get t nbr.(i) = 0 then deactivate t e
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

let mapped (x : int) (y : int) (p : int) =
  if p = x then y else if p = y then x else p

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
  done

(* Distance gain of swapping edge [e] for the pair (a, b). *)
let pair_gain t a b e =
  let u = edge_u t e and v = edge_v t e in
  let dist = t.dist and n = t.n in
  dist.((a * n) + b) - dist.((mapped u v a * n) + mapped u v b)

(* Forced-SWAP selection (deadlock escape): maximal distance gain for the
   oldest pending pair, then (Hbasic, Hfine), then the smallest edge — the
   seed fold's order. Reuses this cycle's candidate state: force_swap is
   only reached when nothing was issued or swapped since [begin_cycle]. *)
let force_best t =
  t.token <- t.token + 1;
  let tok = t.token in
  let bg = ref min_int and bs = ref min_int and nt = ref 0 in
  (* maximal (gain, Hbasic) first, over the active set newest first (the
     ties' order is the fold's); Hfine only among the survivors *)
  for i = t.n_active - 1 downto 0 do
    let e = t.active.(i) in
    if alive t e && t.visit.(e) <> tok then begin
      t.visit.(e) <- tok;
      let g = if t.m = 0 then 0 else pair_gain t t.pa.(0) t.pb.(0) e in
      let basic = t.sbasic.(e) in
      if !nt = 0 || g > !bg || (g = !bg && basic > !bs) then begin
        bg := g;
        bs := basic;
        nt := 0
      end;
      if g = !bg && basic = !bs then begin
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
      out := ((edge_u t e, edge_v t e), t.sbasic.(e)) :: !out
    end
  done;
  (* [compare], typed at int *)
  List.sort
    (fun ((u, v), s) ((u', v'), s') ->
      if u <> u' then Int.compare u u'
      else if v <> v' then Int.compare v v'
      else Int.compare s s')
    !out
