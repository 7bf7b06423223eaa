(* The SEED router, kept verbatim as a reference implementation: the
   pre-optimization CODAR remapper with from-scratch CF recomputation and
   the stale (filter-only) SWAP-candidate list. The determinism suite
   asserts the production router in lib/codar/remapper.ml emits an
   identical event stream, which is the strongest form of the
   "behavior-preserving refactor" guarantee. Do not modernise this file —
   its value is that it does not change. *)

type config = {
  window : int;
  max_chain : int;
  use_commutativity : bool;
  use_fine : bool;
}

let default_config =
  { window = 200; max_chain = 20; use_commutativity = true; use_fine = true }

exception Stuck of string

type state = {
  maqam : Arch.Maqam.t;
  config : config;
  gates : Qc.Gate.t array;
  issued : bool array;
  mutable head : int;  (* first unissued index *)
  mutable remaining : int;
  locks : int array;  (* per physical qubit: busy until this time *)
  mutable layout : Arch.Layout.t;
  mutable time : int;
  mutable events_rev : Schedule.Routed.event list;
  mutable swap_budget : int;
  commutes : Qc.Gate.t -> Qc.Gate.t -> bool;
}

let cf_front st =
  Codar.Cf_front.compute ~window:st.config.window ~max_chain:st.config.max_chain
    ~commutes:st.commutes ~gates:st.gates ~issued:st.issued st.head

let lock_free_phys st p = st.locks.(p) <= st.time

let phys_qubits st g =
  List.map (Arch.Layout.phys_of_log st.layout) (Qc.Gate.qubits g)

let lock_free_gate st g = List.for_all (lock_free_phys st) (phys_qubits st g)

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
  st.remaining <- st.remaining - 1;
  advance_head st

(* Step 2: issue every directly executable CF gate at the current time.
   Issuing can unblock further CF gates (the issued gate leaves the
   sequence), so iterate to a fixpoint. Returns whether anything issued. *)
let rec issue_executable st issued_any =
  let progressed = ref false in
  List.iter
    (fun i ->
      let g = st.gates.(i) in
      if lock_free_gate st g && Arch.Maqam.fits st.maqam st.layout g then begin
        issue_gate st i;
        progressed := true
      end)
    (cf_front st);
  if !progressed then issue_executable st true else issued_any

(* Logical operand pairs of CF two-qubit gates (for the heuristic). *)
let cf_pairs st front =
  List.filter_map
    (fun i ->
      match st.gates.(i) with
      | Qc.Gate.Two (_, q1, q2) -> Some (q1, q2)
      | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> None)
    front

(* Candidate SWAPs: lock-free coupling edges incident to a physical endpoint
   of a pending (non-adjacent) CF two-qubit gate. *)
let swap_candidates st front =
  let coupling = Arch.Maqam.coupling st.maqam in
  let seen = Hashtbl.create 16 in
  let add p p' =
    let e = (min p p', max p p') in
    if
      (not (Hashtbl.mem seen e))
      && lock_free_phys st p && lock_free_phys st p'
    then Hashtbl.replace seen e ()
  in
  List.iter
    (fun i ->
      match st.gates.(i) with
      | Qc.Gate.Two (_, q1, q2) ->
        let p1 = Arch.Layout.phys_of_log st.layout q1 in
        let p2 = Arch.Layout.phys_of_log st.layout q2 in
        if not (Arch.Coupling.adjacent coupling p1 p2) then
          List.iter
            (fun p ->
              List.iter (fun p' -> add p p') (Arch.Coupling.neighbors coupling p))
            [ p1; p2 ]
      | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> ())
    front;
  Hashtbl.fold (fun e () acc -> e :: acc) seen []
  |> List.sort Stdlib.compare

let priority_of st pairs edge =
  let p = Codar.Heuristic.evaluate ~maqam:st.maqam ~layout:st.layout ~cf_pairs:pairs
      ~swap:edge in
  if st.config.use_fine then p else { p with Codar.Heuristic.fine = 0. }

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
  st.layout <- Arch.Layout.swap_physical st.layout p1 p2

(* Step 3: repeatedly issue the best positive-priority SWAP, re-scoring after
   each insertion (the layout changed) and dropping candidates whose qubits
   got locked. Returns whether any SWAP was issued. *)
let insert_swaps st =
  let issued_any = ref false in
  let rec loop candidates =
    let candidates =
      List.filter
        (fun (p, p') -> lock_free_phys st p && lock_free_phys st p')
        candidates
    in
    let front = cf_front st in
    let pairs = cf_pairs st front in
    let scored =
      List.map (fun e -> (priority_of st pairs e, e)) candidates
    in
    let best =
      List.fold_left
        (fun acc (pr, e) ->
          match acc with
          | None -> Some (pr, e)
          | Some (bpr, _) ->
            if Codar.Heuristic.compare_priority pr bpr > 0 then Some (pr, e) else acc)
        None scored
    in
    match best with
    | Some (pr, e) when pr.Codar.Heuristic.basic > 0 ->
      issue_swap st e;
      issued_any := true;
      loop candidates
    | Some _ | None -> ()
  in
  loop (swap_candidates st (cf_front st));
  !issued_any

(* Deadlock escape: every qubit is free yet nothing could be issued. Force
   the SWAP that (first) most reduces the oldest pending two-qubit gate —
   one such SWAP always reduces it by one, guaranteeing progress — with the
   global priority as tiebreak. *)
let force_swap st =
  let front = cf_front st in
  let pairs = cf_pairs st front in
  let oldest =
    match pairs with
    | [] -> None
    | (q1, q2) :: _ -> Some (Arch.Layout.phys_of_log st.layout q1,
                             Arch.Layout.phys_of_log st.layout q2)
  in
  let candidates = swap_candidates st front in
  let score e =
    let oldest_gain =
      match oldest with
      | None -> 0
      | Some (a, b) ->
        let moved p = let p1, p2 = e in
          if p = p1 then p2 else if p = p2 then p1 else p in
        Arch.Maqam.distance st.maqam a b
        - Arch.Maqam.distance st.maqam (moved a) (moved b)
    in
    (oldest_gain, priority_of st pairs e)
  in
  let best =
    List.fold_left
      (fun acc e ->
        let s = score e in
        match acc with
        | None -> Some (s, e)
        | Some ((bg, bp), _) ->
          let g, p = s in
          if
            g > bg || (g = bg && Codar.Heuristic.compare_priority p bp > 0)
          then Some (s, e)
          else acc)
      None candidates
  in
  match best with
  | Some (_, e) -> issue_swap st e
  | None ->
    raise
      (Stuck
         (Fmt.str
            "deadlock with no SWAP candidate at t=%d (%d gates left) — \
             disconnected device?"
            st.time st.remaining))

let next_unlock st =
  Array.fold_left
    (fun acc l -> if l > st.time then min acc l else acc)
    max_int st.locks

let run ?(config = default_config) ~maqam ~initial circuit =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  if n_logical > n_physical then
    invalid_arg "Remapper.run: circuit wider than device";
  if
    Arch.Layout.n_logical initial <> n_logical
    || Arch.Layout.n_physical initial <> n_physical
  then invalid_arg "Remapper.run: layout size mismatch";
  let gates = Qc.Circuit.gate_array circuit in
  let st =
    {
      maqam;
      config;
      gates;
      issued = Array.make (Array.length gates) false;
      head = 0;
      remaining = Array.length gates;
      locks = Array.make n_physical 0;
      layout = initial;
      time = 0;
      events_rev = [];
      swap_budget =
        10 * (Array.length gates + 1) * (n_physical + 1);
      (* the exact-check memo is per route since [Qc.Commute] keeps none *)
      commutes =
        (if config.use_commutativity then Qc.Commute.memoised ()
         else fun _ _ -> false);
    }
  in
  while st.remaining > 0 do
    let issued = issue_executable st false in
    let swapped = if st.remaining > 0 then insert_swaps st else false in
    if st.remaining > 0 then begin
      let next = next_unlock st in
      if next < max_int then st.time <- next
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
