(* Per-qubit chain of pending gates with a maintained length, so the
   [max_chain] saturation probe is O(1) instead of the former
   [List.length] walk (which made the window scan quadratic in the chain
   bound). *)
type chain = {
  mutable len : int;
  mutable gates : Qc.Gate.t list;  (* most recent first *)
  mutable saturated : bool;
}

let scan ~window ~max_chain ~commutes ~gates ~issued head =
  let n = Array.length gates in
  let chains : (int, chain) Hashtbl.t = Hashtbl.create 32 in
  let chain q =
    match Hashtbl.find_opt chains q with
    | Some c -> c
    | None ->
      let c = { len = 0; gates = []; saturated = false } in
      Hashtbl.replace chains q c;
      c
  in
  let rec go i seen acc =
    if i >= n || seen >= window then List.rev acc
    else if issued.(i) then go (i + 1) seen acc
    else begin
      let g = gates.(i) in
      let qs = Qc.Gate.qubits g in
      let is_cf =
        List.for_all
          (fun q ->
            let c = chain q in
            (not c.saturated) && List.for_all (fun h -> commutes h g) c.gates)
          qs
      in
      List.iter
        (fun q ->
          let c = chain q in
          if c.len >= max_chain then c.saturated <- true
          else begin
            c.gates <- g :: c.gates;
            c.len <- c.len + 1
          end)
        qs;
      go (i + 1) (seen + 1) (if is_cf then i :: acc else acc)
    end
  in
  go head 0 []

let default_window = 200
let default_max_chain = 20

let compute ?(window = default_window) ?(max_chain = default_max_chain)
    ~commutes ~gates ~issued head =
  scan ~window ~max_chain ~commutes ~gates ~issued head

(* -------------------------------------------------- incremental tracker *)

(* The scan above defines CF membership, for a gate [g] whose first slot
   on qubit [q] has [k_q(g)] earlier window slots of other gates before it
   (a gate that lists [q] twice holds two adjacent slots there), as

     CF(g)  ⟺  ∀q ∈ qubits(g).  k_q(g) ≤ max_chain
               ∧ ∀h earlier unissued window gate on q.  commutes h g

   That formulation is maintainable by events: issuing a CF gate only
   {e relaxes} the conditions of later gates on its qubits, so nothing
   needs a full rescan —

   - each blocked slot {e watches} its latest non-commuting predecessor
     (the SAT watched-literal trick): when the watcher's blocker is
     issued, the slot rescans back from the blocker's old predecessor
     only, so a slot's total rescan work is one prefix walk. Gates on a
     line of mutually non-commuting gates issue in line order, so a slot
     there wakes once, when its neighbour issues; watching the earliest
     blocker instead woke every such slot at every issue on its line
     (6.3× the commutation checks on 1000 daemon-mixed colds);
   - on a qubit line that holds saturated slots, a removal re-evaluates
     those now within [max_chain] of the line's start, found with a
     bounded walk;
   - the window admits exactly the next unissued gate past its tail,
     checked once against the (≤ [max_chain]-long) prefixes of its
     qubits.

   All of it lives in int arrays. Slots come from a pool (ids into the
   [s_*] arrays, free ones chained through [s_next]); each qubit line is a
   doubly-linked slot list; each gate's slots are chained through
   [s_gnext]; each watcher list is chained through [s_wnext]. Only CF
   gates issue, and a CF gate's slots are all [ok], so a slot is never in
   a watcher list when it is freed. The window's CF gates form an
   ascending doubly-linked list, so [front] walks the front, not the
   window, and copies it into [items].

   The arrays outlive a gate array: [load] points the tracker at the
   next one and replaces only arrays too small for it (geometrically),
   and the first [front] rebuilds every entry it reads. *)

let ok = -1
let saturated = -2
(* a slot state >= 0 is the gate index of its blocker *)

type t = {
  mutable window : int;
  mutable max_chain : int;
  mutable commutes : int -> int -> bool;
  mutable gates : Qc.Gate.t array;
  mutable issued : bool array;
  mutable n : int;  (* gates tracked: [gates.(0 .. n-1)] *)
  mutable nq : int;  (* qubits those gates name *)
  (* per qubit: the line of window slots, in window order *)
  mutable q_first : int array;
  mutable q_last : int array;
  mutable q_count : int array;
  mutable q_sat : int array;  (* saturated slots on the line *)
  (* the slot pool *)
  mutable s_gate : int array;
  mutable s_qubit : int array;
  mutable s_prev : int array;
  mutable s_next : int array;  (* line successor; free-list link *)
  mutable s_state : int array;  (* [ok], [saturated] or the blocker *)
  mutable s_gnext : int array;  (* next slot of the same gate *)
  mutable s_wnext : int array;  (* next slot watching the same blocker *)
  mutable free : int;
  (* per gate *)
  mutable gslot : int array;  (* first slot while in the window, else -1 *)
  mutable bad : int array;  (* blocking slots; CF ⟺ 0 *)
  mutable in_window : bool array;
  mutable whead : int array;  (* first slot blocked by this gate, -1 if none *)
  mutable win_count : int;
  mutable scan_next : int;  (* next gate index to examine for admission *)
  (* the window's CF gates in ascending order *)
  mutable in_cf : bool array;
  mutable cprev : int array;
  mutable cnext : int array;
  mutable cfirst : int;
  mutable clast : int;
  mutable built : bool;  (* incremental structures mirror [issued] *)
  mutable list_valid : bool;  (* [items] mirrors the structures *)
  mutable items : int array;  (* the front, [0, cached_len) *)
  mutable cached_len : int;
  mutable cached_head : int;
  mutable version : int;  (* bumped by every recompute *)
}

let max_qubit acc g =
  match g with
  | Qc.Gate.One (_, q) | Qc.Gate.Measure (q, _) -> Int.max acc q
  | Qc.Gate.Two (_, a, b) -> Int.max acc (Int.max a b)
  | Qc.Gate.Barrier qs -> List.fold_left Int.max acc qs

let empty () =
  {
    window = 0;
    max_chain = 0;
    commutes = (fun _ _ -> false);
    gates = [||];
    issued = [||];
    n = 0;
    nq = 0;
    q_first = [||];
    q_last = [||];
    q_count = [||];
    q_sat = [||];
    s_gate = [||];
    s_qubit = [||];
    s_prev = [||];
    s_next = [||];
    s_state = [||];
    s_gnext = [||];
    s_wnext = [||];
    free = -1;
    gslot = [||];
    bad = [||];
    in_window = [||];
    whead = [||];
    win_count = 0;
    scan_next = 0;
    in_cf = [||];
    cprev = [||];
    cnext = [||];
    cfirst = -1;
    clast = -1;
    built = false;
    list_valid = false;
    items = [||];
    cached_len = 0;
    cached_head = -1;
    version = 0;
  }

(* Room for [len] entries in arrays of current capacity [cap]. *)
let grown cap len = Int.max len (2 * cap)

(* Point [t] at a new gate array. Arrays too small are replaced (their
   contents are rebuilt before use: the first [front] rebuilds); larger
   ones stay. *)
let prepare t ~window ~max_chain ~commutes ~gates ~issued ~n =
  let nq = ref (-1) in
  for i = 0 to n - 1 do
    nq := max_qubit !nq gates.(i)
  done;
  let nq = !nq + 1 in
  t.window <- window;
  t.max_chain <- max_chain;
  t.commutes <- commutes;
  t.gates <- gates;
  t.issued <- issued;
  t.n <- n;
  t.nq <- nq;
  if Array.length t.q_first < nq then begin
    let cap = grown (Array.length t.q_first) nq in
    t.q_first <- Array.make cap (-1);
    t.q_last <- Array.make cap (-1);
    t.q_count <- Array.make cap 0;
    t.q_sat <- Array.make cap 0
  end;
  if Array.length t.gslot < n then begin
    let cap = grown (Array.length t.gslot) n in
    t.gslot <- Array.make cap (-1);
    t.bad <- Array.make cap 0;
    t.in_window <- Array.make cap false;
    t.whead <- Array.make cap (-1);
    t.in_cf <- Array.make cap false;
    t.cprev <- Array.make cap (-1);
    t.cnext <- Array.make cap (-1)
  end;
  let pool = 2 * (Int.min window n + 2) in
  if Array.length t.s_gate < pool then begin
    let cap = grown (Array.length t.s_gate) pool in
    t.s_gate <- Array.make cap 0;
    t.s_qubit <- Array.make cap 0;
    t.s_prev <- Array.make cap (-1);
    t.s_next <- Array.make cap (-1);
    t.s_state <- Array.make cap ok;
    t.s_gnext <- Array.make cap (-1);
    t.s_wnext <- Array.make cap (-1)
  end;
  t.free <- -1;
  t.built <- false;
  t.list_valid <- false;
  t.cached_len <- 0;
  t.cached_head <- -1

let create ?(window = default_window) ?(max_chain = default_max_chain)
    ~commutes ~gates ~issued () =
  let t = empty () in
  prepare t ~window ~max_chain ~commutes ~gates ~issued
    ~n:(Array.length gates);
  t

let load t ~window ~commutes ~gates ~issued ~n =
  prepare t ~window ~max_chain:default_max_chain ~commutes ~gates ~issued ~n

let words t =
  (4 * Array.length t.q_first)
  + (7 * Array.length t.s_gate)
  + (7 * Array.length t.gslot)
  + Array.length t.items

let invalidate t =
  t.built <- false;
  t.list_valid <- false

(* Chain slots [lo, hi) onto the free list. *)
let free_range t lo hi =
  for s = hi - 1 downto lo do
    t.s_next.(s) <- t.free;
    t.free <- s
  done

let grow t =
  let cap = Array.length t.s_gate in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.s_gate <- extend t.s_gate 0;
  t.s_qubit <- extend t.s_qubit 0;
  t.s_prev <- extend t.s_prev (-1);
  t.s_next <- extend t.s_next (-1);
  t.s_state <- extend t.s_state ok;
  t.s_gnext <- extend t.s_gnext (-1);
  t.s_wnext <- extend t.s_wnext (-1);
  free_range t cap cap'

let alloc_slot t =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.s_next.(s);
  s

let add_watcher t b s =
  t.s_wnext.(s) <- t.whead.(b);
  t.whead.(b) <- s

(* Insert CF gate [g] into the ascending CF list. The list is the front,
   a handful of gates, so the walk from the tail is short. *)
let cf_insert t g =
  let p = ref t.clast in
  while !p > g do
    p := t.cprev.(!p)
  done;
  let nx = if !p >= 0 then t.cnext.(!p) else t.cfirst in
  t.cprev.(g) <- !p;
  t.cnext.(g) <- nx;
  if !p >= 0 then t.cnext.(!p) <- g else t.cfirst <- g;
  if nx >= 0 then t.cprev.(nx) <- g else t.clast <- g;
  t.in_cf.(g) <- true;
  t.list_valid <- false

let cf_remove t g =
  if t.in_cf.(g) then begin
    let p = t.cprev.(g) and nx = t.cnext.(g) in
    if p >= 0 then t.cnext.(p) <- nx else t.cfirst <- nx;
    if nx >= 0 then t.cprev.(nx) <- p else t.clast <- p;
    t.in_cf.(g) <- false;
    t.list_valid <- false
  end

(* The latest non-commuting predecessor of gate [g] at or before slot
   [c], walking the line back towards its start (every slot after [c] is
   already known to commute); [ok] when none. Slots of [g] itself are not
   predecessors. *)
let rec first_blocker t g c =
  if c < 0 then ok
  else begin
    let h = t.s_gate.(c) in
    if h = g || t.commutes h g then first_blocker t g t.s_prev.(c) else h
  end

(* One fewer blocking slot for gate [g]. *)
let relax t g =
  let b = t.bad.(g) - 1 in
  t.bad.(g) <- b;
  if b = 0 then cf_insert t g

(* The saturated slot [c] is now within [max_chain] of its line's start:
   derive its verdict from its whole prefix. *)
let reeval t c =
  let q = t.s_qubit.(c) and g = t.s_gate.(c) in
  t.q_sat.(q) <- t.q_sat.(q) - 1;
  let b = first_blocker t g t.s_prev.(c) in
  t.s_state.(c) <- b;
  if b >= 0 then add_watcher t b c else relax t g

(* Re-evaluate the saturated slots of a line whose gate position (the
   count of earlier slots of other gates) is back within [max_chain]. *)
let rec fix_line t c idx pos prev =
  if c >= 0 then begin
    let g = t.s_gate.(c) in
    let pos = if g = prev then pos else idx in
    if pos <= t.max_chain then begin
      let next = t.s_next.(c) in
      if t.s_state.(c) = saturated then reeval t c;
      fix_line t next (idx + 1) pos g
    end
  end

(* A slot for gate [i] on qubit [q], its verdict taken against the line
   as it stands (none of [i]'s slots linked yet, so a gate listing a
   qubit twice is checked as the scan checks it). *)
let stage t i q =
  let s = alloc_slot t in
  t.s_gate.(s) <- i;
  t.s_qubit.(s) <- q;
  t.s_state.(s) <-
    (if t.q_count.(q) > t.max_chain then saturated
     else first_blocker t i t.q_last.(q));
  s

let rec stage_list t i = function
  | [] -> -1
  | q :: rest ->
    let s = stage t i q in
    let next = stage_list t i rest in
    (* read [s_gnext] only now: staging [rest] may have grown the pool *)
    t.s_gnext.(s) <- next;
    s

(* Append gate [i]'s staged slots to their lines. *)
let rec link t i s =
  if s >= 0 then begin
    let q = t.s_qubit.(s) in
    let last = t.q_last.(q) in
    t.s_prev.(s) <- last;
    t.s_next.(s) <- -1;
    if last >= 0 then t.s_next.(last) <- s else t.q_first.(q) <- s;
    t.q_last.(q) <- s;
    t.q_count.(q) <- t.q_count.(q) + 1;
    let state = t.s_state.(s) in
    if state <> ok then begin
      t.bad.(i) <- t.bad.(i) + 1;
      if state >= 0 then add_watcher t state s
      else t.q_sat.(q) <- t.q_sat.(q) + 1
    end;
    link t i t.s_gnext.(s)
  end

let admit t i =
  let first =
    match t.gates.(i) with
    | Qc.Gate.One (_, q) | Qc.Gate.Measure (q, _) ->
      let s = stage t i q in
      t.s_gnext.(s) <- -1;
      s
    | Qc.Gate.Two (_, a, b) ->
      let sa = stage t i a in
      let sb = stage t i b in
      t.s_gnext.(sa) <- sb;
      t.s_gnext.(sb) <- -1;
      sa
    | Qc.Gate.Barrier qs -> stage_list t i qs
  in
  t.gslot.(i) <- first;
  t.bad.(i) <- 0;
  link t i first;
  t.in_window.(i) <- true;
  t.win_count <- t.win_count + 1;
  (* [i] is the highest window index: a CF [i] goes to the list's tail *)
  if t.bad.(i) = 0 then cf_insert t i

let admit_pending t =
  while t.win_count < t.window && t.scan_next < t.n do
    if not t.issued.(t.scan_next) then admit t t.scan_next;
    t.scan_next <- t.scan_next + 1
  done

let rebuild t =
  Array.fill t.q_first 0 t.nq (-1);
  Array.fill t.q_last 0 t.nq (-1);
  Array.fill t.q_count 0 t.nq 0;
  Array.fill t.q_sat 0 t.nq 0;
  t.free <- -1;
  free_range t 0 (Array.length t.s_gate);
  Array.fill t.gslot 0 t.n (-1);
  Array.fill t.bad 0 t.n 0;
  Array.fill t.in_window 0 t.n false;
  Array.fill t.whead 0 t.n (-1);
  Array.fill t.in_cf 0 t.n false;
  t.cfirst <- -1;
  t.clast <- -1;
  t.win_count <- 0;
  t.scan_next <- 0;
  admit_pending t;
  t.built <- true

let unlink_slot t s =
  let q = t.s_qubit.(s) in
  let p = t.s_prev.(s) and nx = t.s_next.(s) in
  if p >= 0 then t.s_next.(p) <- nx else t.q_first.(q) <- nx;
  if nx >= 0 then t.s_prev.(nx) <- p else t.q_last.(q) <- p;
  t.q_count.(q) <- t.q_count.(q) - 1

(* Wake slot [w], blocked by the just-issued gate [i]: the slots between
   [i] and [w] commute with [w], so rescan back from the predecessor of
   [i]'s (unlinked) slot on [w]'s qubit. Unlinking leaves that slot's
   [s_prev] on the live line, also when [i] lists the qubit twice. *)
let rec resume t q s =
  if s < 0 then assert false (* a blocker has a slot on its watchers' line *)
  else if t.s_qubit.(s) = q then t.s_prev.(s)
  else resume t q t.s_gnext.(s)

let wake t i w =
  let g = t.s_gate.(w) in
  let b = first_blocker t g (resume t t.s_qubit.(w) t.gslot.(i)) in
  t.s_state.(w) <- b;
  if b >= 0 then add_watcher t b w else relax t g

let notify_issued t i =
  if t.built then begin
    if i >= t.scan_next then ()  (* never admitted; admission will skip it *)
    else if (not t.in_window.(i)) || t.bad.(i) > 0 then
      (* not a CF gate of the window: an external mutation the events do
         not model; fall back to a rebuild *)
      invalidate t
    else begin
      t.in_window.(i) <- false;
      t.win_count <- t.win_count - 1;
      cf_remove t i;
      let s = ref t.gslot.(i) in
      while !s >= 0 do
        unlink_slot t !s;
        s := t.s_gnext.(!s)
      done;
      let w = ref t.whead.(i) in
      t.whead.(i) <- -1;
      while !w >= 0 do
        let next = t.s_wnext.(!w) in
        wake t i !w;
        w := next
      done;
      s := t.gslot.(i);
      while !s >= 0 do
        let q = t.s_qubit.(!s) in
        if t.q_sat.(q) > 0 then fix_line t t.q_first.(q) 0 0 (-1);
        s := t.s_gnext.(!s)
      done;
      (* free [i]'s slots last: the wakes and the saturation fix read
         them *)
      s := t.gslot.(i);
      while !s >= 0 do
        let next = t.s_gnext.(!s) in
        t.s_next.(!s) <- t.free;
        t.free <- !s;
        s := next
      done;
      t.gslot.(i) <- -1;
      t.list_valid <- false;
      admit_pending t
    end
  end

let front ?stats t head =
  if t.built && t.list_valid && t.cached_head = head then begin
    (match stats with
    | Some s -> s.Stats.cf_cache_hits <- s.Stats.cf_cache_hits + 1
    | None -> ());
    t.cached_len
  end
  else begin
    (match stats with
    | Some s -> s.Stats.cf_recomputes <- s.Stats.cf_recomputes + 1
    | None -> ());
    if not t.built then rebuild t;
    (* the CF gates are window gates *)
    if Array.length t.items < t.win_count then
      t.items <- Array.make (grown (Array.length t.items) t.win_count) 0;
    let k = ref 0 and i = ref t.cfirst in
    while !i >= 0 do
      if !i >= head then begin
        t.items.(!k) <- !i;
        incr k
      end;
      i := t.cnext.(!i)
    done;
    t.cached_len <- !k;
    t.cached_head <- head;
    t.list_valid <- true;
    t.version <- t.version + 1;
    !k
  end

let items t = t.items
let version t = t.version
