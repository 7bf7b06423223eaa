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
     are computed with the unchanged {!Heuristic.evaluate_phys} — same
     fold, same order — and only for the candidates tied at the maximal
     [Hbasic], which is where the ≥5× cut in full evaluations comes from.

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

type t = {
  maqam : Arch.Maqam.t;
  n : int;
  dsrc : dsource;
  eidx : eindex;
  neighbors : int array array;
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
  mutable plist : (int * int) list;  (* pairs in front order, for Hfine *)
  mutable plist_valid : bool;
  inc : int list array;  (* per phys qubit: incident pair indices *)
  inc_stamp : int array;
  touch : int array;  (* per phys qubit: # incident non-adjacent pairs *)
  touch_stamp : int array;
  seen : int array;  (* per phys qubit: token-stamped dedup marker *)
  (* ---- per-edge state (ids per [eidx]) ---- *)
  score : int array;  (* objective score: scale * sbasic + bonus *)
  sbasic : int array;  (* the Hbasic component alone *)
  in_set : bool array;
  edge_stamp : int array;
  visit : int array;  (* token-stamped dedup for extraction/iteration;
                         sized >= n so it doubles as a qubit marker *)
  mutable token : int;
  mutable active : int list;  (* edges activated this cycle (may repeat) *)
  mutable buckets : int list array;  (* index = score + scale * m *)
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
      plist = [];
      plist_valid = false;
      inc = Array.make n [];
      inc_stamp = Array.make n (-1);
      touch = Array.make n 0;
      touch_stamp = Array.make n (-1);
      seen = Array.make n 0;
      score = Array.make edge_slots 0;
      sbasic = Array.make edge_slots 0;
      in_set = Array.make edge_slots false;
      edge_stamp = Array.make edge_slots (-1);
      visit = Array.make visit_slots 0;
      token = 0;
      active = [];
      buckets = [||];
      qmax = -1;
    }
  in
  t.octx <-
    {
      Objective.n;
      dist_row = Arch.Coupling.distance_row coupling;
      incident = (fun p -> if t.inc_stamp.(p) = t.epoch then t.inc.(p) else []);
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
let eid t u v =
  let u, v = if u < v then (u, v) else (v, u) in
  match t.eidx with
  | Square n -> (u * n) + v
  | Csr c ->
    let rec scan i hi =
      if i >= hi then
        invalid_arg (Fmt.str "Swap_scorer.eid: (%d,%d) is not an edge" u v)
      else if c.ev.(i) = v then i
      else scan (i + 1) hi
    in
    scan c.eoff.(u) c.eoff.(u + 1)

let edge_of t e =
  match t.eidx with
  | Square n -> (e / n, e mod n)
  | Csr c -> (c.eu.(e), c.ev.(e))
let alive t e = t.edge_stamp.(e) = t.epoch && t.in_set.(e)
let lock_free t p = t.locks.(p) <= t.time

let inc_get t p = if t.inc_stamp.(p) = t.epoch then t.inc.(p) else []

let inc_set t p l =
  t.inc.(p) <- l;
  t.inc_stamp.(p) <- t.epoch

let touch_get t p = if t.touch_stamp.(p) = t.epoch then t.touch.(p) else 0

let touch_set t p v =
  t.touch.(p) <- v;
  t.touch_stamp.(p) <- t.epoch

let adjacent t a b = Arch.Maqam.adjacent t.maqam a b

(* Σ over pairs [ks] at [u], bar the one at [v] too, of how much closer
   moving [u] to [v] brings the pair's other endpoint. *)
let rec gain_flat t dist u v acc = function
  | [] -> acc
  | k :: ks ->
    let o = if t.pa.(k) = u then t.pb.(k) else t.pa.(k) in
    let acc =
      if o <> v then acc + dist.((u * t.n) + o) - dist.((v * t.n) + o)
      else acc
    in
    gain_flat t dist u v acc ks

(* Point queries, not row fetches: a big device's routing working set
   exceeds the bounded row cache, so materialising whole rows here would
   recompute O(V)-sized BFS per score — the early-exit point query costs
   only the ball around the pair. *)
let rec gain_rows t c u v acc = function
  | [] -> acc
  | k :: ks ->
    let o = if t.pa.(k) = u then t.pb.(k) else t.pa.(k) in
    let acc =
      if o <> v then
        acc + Arch.Coupling.distance_raw c u o
        - Arch.Coupling.distance_raw c v o
      else acc
    in
    gain_rows t c u v acc ks

(* Hbasic of swapping (u,v): only pairs incident to u or v contribute; the
   pair (u,v) itself (both endpoints swapped) contributes 0 and is
   skipped. *)
let compute_basic t u v =
  t.stats.Stats.swap_rescores <- t.stats.Stats.swap_rescores + 1;
  match t.dsrc with
  | Flat dist ->
    gain_flat t dist v u (gain_flat t dist u v 0 (inc_get t u)) (inc_get t v)
  | Rows c ->
    gain_rows t c v u (gain_rows t c u v 0 (inc_get t u)) (inc_get t v)

(* Objective score of (u,v) given its Hbasic. Bonus-free objectives
   (makespan, t2) have [bonus_bound = 0] and skip the call entirely, so
   their hot path is byte-for-byte the PR 6 one. *)
(* The bonus always sees the canonical (min, max) orientation — activation
   reaches here as (seed, neighbour) in either order, and an asymmetric
   objective must score an edge identically on both paths. *)
let score_of t u v basic =
  if t.bonus_bound = 0 then basic
  else (t.scale * basic) + t.obj_bonus t.octx ~u:(min u v) ~v:(max u v)

let push t e score =
  let idx = score + (t.scale * t.m) in
  t.buckets.(idx) <- e :: t.buckets.(idx);
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
    t.active <- e :: t.active;
    t.stats.Stats.swap_candidates <- t.stats.Stats.swap_candidates + 1;
    push t e score
  end

let deactivate t e = if alive t e then t.in_set.(e) <- false

let rescore t e =
  let u, v = edge_of t e in
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
    t.pair_seen <- Array.make cap 0
  end

let begin_cycle t ~time ~phys_pairs =
  t.epoch <- t.epoch + 1;
  t.time <- time;
  t.active <- [];
  t.qmax <- -1;
  let m = List.length phys_pairs in
  ensure_pair_capacity t m;
  t.m <- m;
  t.plist <- phys_pairs;
  t.plist_valid <- true;
  (* score range: [-scale*m, scale*m + bonus_bound] *)
  let n_buckets = (2 * t.scale * m) + t.bonus_bound + 1 in
  if Array.length t.buckets < n_buckets then
    t.buckets <- Array.make (max n_buckets (2 * Array.length t.buckets)) []
  else Array.fill t.buckets 0 n_buckets [];
  (* register pairs; collect the qubits that gained their first incident
     non-adjacent pair — candidate edges sit only around those *)
  let seeds = ref [] in
  let k = ref 0 in
  List.iter
    (fun (a, b) ->
      t.pa.(!k) <- a;
      t.pb.(!k) <- b;
      inc_set t a (!k :: inc_get t a);
      inc_set t b (!k :: inc_get t b);
      let na = not (adjacent t a b) in
      t.pnonadj.(!k) <- na;
      if na then begin
        let ta = touch_get t a and tb = touch_get t b in
        if ta = 0 then seeds := a :: !seeds;
        touch_set t a (ta + 1);
        let tb = if a = b then tb + 1 else tb in
        if tb = 0 then seeds := b :: !seeds;
        touch_set t b (tb + 1)
      end;
      incr k)
    phys_pairs;
  List.iter
    (fun p -> Array.iter (fun nb -> try_activate t p nb) t.neighbors.(p))
    !seeds

let phys_pairs t =
  if not t.plist_valid then begin
    let l = ref [] in
    for k = t.m - 1 downto 0 do
      l := (t.pa.(k), t.pb.(k)) :: !l
    done;
    t.plist <- !l;
    t.plist_valid <- true
  end;
  t.plist

(* Full evaluation — the unchanged seed fold, so [fine] is bitwise
   identical to the reference router's. Only tie-breaks pay for it. *)
let fine_of t e =
  t.stats.Stats.heuristic_evals <- t.stats.Stats.heuristic_evals + 1;
  let p =
    Heuristic.evaluate_phys ~maqam:t.maqam ~phys_pairs:(phys_pairs t)
      ~swap:(edge_of t e)
  in
  p.Heuristic.fine

(* Winner among [es] (all sharing the maximal Hbasic): maximal Hfine, then
   smallest edge id — exactly the seed fold's ascending-order
   first-strict-max. *)
let break_ties t es =
  match es with
  | [ e ] -> e
  | es when not t.use_fine ->
    List.fold_left (fun acc e -> if e < acc then e else acc) max_int es
  | es ->
    let best =
      List.fold_left
        (fun acc e ->
          let f = fine_of t e in
          match acc with
          | None -> Some (f, e)
          | Some (bf, be) ->
            if f > bf || (f = bf && e < be) then Some (f, e) else acc)
        None es
    in
    (match best with Some (_, e) -> e | None -> assert false)

let best t =
  if t.qmax < 0 then None
  else begin
    t.token <- t.token + 1;
    let tok = t.token in
    let rec descend idx =
      if idx < 0 then None
      else begin
        let members =
          List.filter
            (fun e ->
              alive t e
              && t.score.(e) = idx - (t.scale * t.m)
              && t.visit.(e) <> tok
              && begin
                   t.visit.(e) <- tok;
                   true
                 end)
            t.buckets.(idx)
        in
        t.buckets.(idx) <- members;
        match members with
        | [] -> descend (idx - 1)
        | e0 :: _ as es ->
          t.qmax <- idx;
          (* same score => same Hbasic (unique decomposition) *)
          let basic = t.sbasic.(e0) in
          (* A best below the issue threshold never issues (the CODAR
             rule, generalised to the objective's [issue_min]), so its
             tie-break is observationally irrelevant — skip the fine
             evaluations the reference burned on every cycle's final,
             rejected iteration and return the smallest edge directly. *)
          let e =
            if basic > t.issue_min then break_ties t es
            else
              List.fold_left (fun acc e -> if e < acc then e else acc)
                max_int es
          in
          Some (edge_of t e, basic)
      end
    in
    let r = descend (min t.qmax ((2 * t.scale * t.m) + t.bonus_bound)) in
    if r = None then t.qmax <- -1;
    r
  end

(* The SWAP (x,y) was emitted (locks already advanced past [t.time]) —
   repair the candidate set. Must be called after the remapper's
   [issue_swap], never before. *)
let commit t (x, y) =
  t.token <- t.token + 1;
  let tok = t.token in
  (* 1. x and y are lock-blocked for the rest of the cycle *)
  Array.iter (fun nb -> deactivate t (eid t x nb)) t.neighbors.(x);
  Array.iter (fun nb -> deactivate t (eid t y nb)) t.neighbors.(y);
  (* 2. remap the pairs touching x or y; collect justification transitions
     and the far endpoints whose candidates need rescoring *)
  let mapped p = if p = x then y else if p = y then x else p in
  let transitions = ref [] in
  let record_old p =
    if t.seen.(p) <> tok then begin
      t.seen.(p) <- tok;
      transitions := (p, touch_get t p) :: !transitions
    end
  in
  let zs = ref [] in
  let zseen = t.visit in
  (* [visit] is sized >= max(edge ids, n) and extraction tokens differ,
     so reuse it for qubit dedup *)
  let add_z p =
    if p <> x && p <> y && zseen.(p) <> tok then begin
      zseen.(p) <- tok;
      zs := p :: !zs
    end
  in
  let process k =
    if t.pair_seen.(k) <> tok then begin
      t.pair_seen.(k) <- tok;
      let a = t.pa.(k) and b = t.pb.(k) in
      let a' = mapped a and b' = mapped b in
      let oldna = t.pnonadj.(k) in
      let newna = not (adjacent t a' b') in
      t.pa.(k) <- a';
      t.pb.(k) <- b';
      t.pnonadj.(k) <- newna;
      if oldna then begin
        record_old a;
        record_old b;
        touch_set t a (touch_get t a - 1);
        touch_set t b (touch_get t b - 1)
      end;
      if newna then begin
        record_old a';
        record_old b';
        touch_set t a' (touch_get t a' + 1);
        touch_set t b' (touch_get t b' + 1)
      end;
      add_z a;
      add_z b;
      add_z a';
      add_z b'
    end
  in
  List.iter process (inc_get t x);
  List.iter process (inc_get t y);
  (* every pair endpoint x is now y and vice versa: the incidence lists
     swap wholesale *)
  let ix = inc_get t x and iy = inc_get t y in
  inc_set t x iy;
  inc_set t y ix;
  t.plist_valid <- false;
  (* 3. scores of surviving candidates at far endpoints changed *)
  List.iter
    (fun z ->
      Array.iter
        (fun nb ->
          let e = eid t z nb in
          if alive t e then rescore t e)
        t.neighbors.(z))
    !zs;
  (* 4. justification transitions: activation around qubits that gained
     their first non-adjacent pair, deactivation where the last one left *)
  List.iter
    (fun (p, old) ->
      let now = touch_get t p in
      if old = 0 && now > 0 then
        Array.iter (fun nb -> try_activate t p nb) t.neighbors.(p)
      else if old > 0 && now = 0 then
        Array.iter
          (fun nb ->
            let e = eid t p nb in
            if alive t e && touch_get t nb = 0 then deactivate t e)
          t.neighbors.(p))
    !transitions;
  (* 5. objectives that opted out of the repair rule: reprice every live
     candidate (rescore is push-on-change, so unchanged edges cost one
     recompute and no queue traffic) *)
  if t.full_rescore then begin
    t.token <- t.token + 1;
    let tok = t.token in
    List.iter
      (fun e ->
        if alive t e && t.visit.(e) <> tok then begin
          t.visit.(e) <- tok;
          rescore t e
        end)
      t.active
  end

(* Forced-SWAP selection (deadlock escape): maximal distance gain for the
   oldest pending pair, then the regular objective-score priority (which
   is exactly (Hbasic, Hfine) for makespan), then the smallest edge — the
   seed fold's order. Reuses this cycle's candidate state: force_swap is
   only reached when nothing was issued or swapped since [begin_cycle]. *)
let force_best t =
  t.token <- t.token + 1;
  let tok = t.token in
  let gain_of =
    if t.m = 0 then fun _ -> 0
    else begin
      let a = t.pa.(0) and b = t.pb.(0) in
      match t.dsrc with
      | Flat dist ->
        let n = t.n in
        fun e ->
          let u, v = edge_of t e in
          let mv p = if p = u then v else if p = v then u else p in
          dist.((a * n) + b) - dist.((mv a * n) + mv b)
      | Rows c ->
        (* [a]/[b] are fixed across the scan: hoist their distance, and
           skip the lookup entirely for edges touching neither endpoint —
           those cannot move the pair, so their gain is 0 by definition
           (at most degree(a)+degree(b) point queries per call). *)
        let d0 = Arch.Coupling.distance_raw c a b in
        fun e ->
          let u, v = edge_of t e in
          if a <> u && a <> v && b <> u && b <> v then 0
          else
            let mv p = if p = u then v else if p = v then u else p in
            d0 - Arch.Coupling.distance_raw c (mv a) (mv b)
    end
  in
  (* maximal (gain, score) first; Hfine only among the survivors *)
  let best = ref None in
  List.iter
    (fun e ->
      if alive t e && t.visit.(e) <> tok then begin
        t.visit.(e) <- tok;
        let g = gain_of e and score = t.score.(e) in
        match !best with
        | None -> best := Some (g, score, [ e ])
        | Some (bg, bb, es) ->
          if g > bg || (g = bg && score > bb) then
            best := Some (g, score, [ e ])
          else if g = bg && score = bb then best := Some (bg, bb, e :: es)
      end)
    t.active;
  match !best with
  | None -> None
  | Some (_, _, es) -> Some (edge_of t (break_ties t es))

let candidates t =
  t.token <- t.token + 1;
  let tok = t.token in
  List.filter_map
    (fun e ->
      if alive t e && t.visit.(e) <> tok then begin
        t.visit.(e) <- tok;
        Some (edge_of t e, t.score.(e))
      end
      else None)
    t.active
  |> List.sort compare
