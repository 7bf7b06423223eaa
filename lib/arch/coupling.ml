(* The distance provider is pluggable (PR 10 tentpole): devices at or
   below [dense_limit] qubits keep the eager flat n×n table — the PR 6
   incremental scorer's hot path is untouched — while larger devices get
   a sparse backend: per-source BFS rows materialised on demand and
   memoised, plus a handful of landmark BFS rows whose triangle-inequality
   gap (and, on coordinate-bearing lattices, a scaled Chebyshev bound)
   gives admissible lower-bound estimates without any row at all. *)

type backend = Dense | Sparse

let dense_limit = 64

(* The sparse backend keeps at most this many BFS rows resident (plus
   the landmark rows), evicting round-robin beyond it — so its distance
   footprint is O(dense_limit · V) = O(V), never the dense table's
   O(V²), no matter how many sources a long route touches. Evicted rows
   are recomputed on next demand (one O(V+E) BFS); references already
   handed out stay valid, the cache merely drops its own. *)
let row_cache_limit = dense_limit

type provider =
  | Table of {
      table : int array;
          (* n×n all-pairs shortest paths, row-major ([a * n + b]); a single
             flat array so the router hot path is one cache line away from a
             distance, not two pointer hops. [unreachable_distance] (-1)
             marks disconnected pairs: a sign test, unlike the former
             [max_int] sentinel, can never poison the heuristic's additive
             arithmetic. *)
      diameter : int;
      rows : int array option Atomic.t array;
          (* lazily copied rows for callers speaking the row interface *)
    }
  | Lazy_rows of {
      rows : int array option Atomic.t array;
          (* per-source BFS rows, computed on first demand. Publication is
             an atomic store so a row observed from another pool domain is
             fully initialised; racing computations produce identical
             arrays (BFS is deterministic), so last-write-wins is benign. *)
      resident : int Atomic.t;  (* rows currently cached (<= cap + races) *)
      clock : int Atomic.t;  (* round-robin eviction cursor *)
      diam : int Atomic.t;  (* -1 until computed (O(V·E), scratch-row) *)
      landmarks : int array;
      lrows : int array array;  (* landmark BFS rows, k × n *)
      coord_step : float;
          (* max per-edge coordinate step (0. without coords): a path of L
             edges moves each axis by <= L * coord_step, so
             ceil(max(|dx|,|dy|) / coord_step) lower-bounds the distance *)
    }

type t = {
  name : string;
  n : int;
  adj : int list array;
  adjm : Bytes.t option;
      (* n×n adjacency matrix, row-major: O(1) [adjacent]. Dense backend
         only — the sparse one answers from the CSR neighbour slice. *)
  deg : int array;
  edges : (int * int) list;
  off : int array;  (* CSR: off.(q) .. off.(q+1)-1 index q's neighbours *)
  nbr : int array;
  provider : provider;
  coords : (float * float) array option;
}

let unreachable_distance = -1

(* Fill [row] (starting at [base]) with distances from [src]. The
   adjacency is consulted in CSR form ([off]/[nbr] flat int arrays) and
   the BFS frontier is a reusable int array ring — no per-source [Queue.t]
   or boxed-list traffic, which is what makes dense [make] cheap enough to
   sit in a micro-benchmark (core/coupling-sycamore). The dense backend
   passes the flat table with [base = src * n]; the sparse one a
   standalone row with [base = 0]. *)
let bfs_into off nbr dist ~base queue src =
  dist.(base + src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = dist.(base + u) + 1 in
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if dist.(base + v) = unreachable_distance then begin
        dist.(base + v) <- du1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

let bfs_row n off nbr src =
  let row = Array.make n unreachable_distance in
  let queue = Array.make (max 1 n) 0 in
  bfs_into off nbr row ~base:0 queue src;
  row

(* Farthest-point sampling: start from qubit 0, repeatedly add the vertex
   maximising its distance to the chosen set (unreachable counts as
   infinitely far, so every component gets a landmark). Deterministic —
   ties break on the smallest vertex id. *)
let pick_landmarks n off nbr =
  if n = 0 then ([||], [||])
  else begin
    let k = min 8 n in
    let mind = Array.make n max_int in
    let lms = ref [] and rows = ref [] in
    let next = ref 0 in
    (try
       for _ = 1 to k do
         let src = !next in
         let row = bfs_row n off nbr src in
         lms := src :: !lms;
         rows := row :: !rows;
         let far = ref 0 and farv = ref (-1) in
         for v = 0 to n - 1 do
           let d = if row.(v) < 0 then max_int else row.(v) in
           if d < mind.(v) then mind.(v) <- d;
           if mind.(v) > !farv then begin
             farv := mind.(v);
             far := v
           end
         done;
         if !farv = 0 then raise Exit;  (* whole graph already covered *)
         next := !far
       done
     with Exit -> ());
    ( Array.of_list (List.rev !lms),
      Array.of_list (List.rev !rows) )
  end

let make ?coords ?backend ~name ~n edge_list =
  if n < 0 then invalid_arg "Coupling.make: negative qubit count";
  (match coords with
  | Some a when Array.length a <> n ->
    invalid_arg "Coupling.make: coords length mismatch"
  | Some _ | None -> ());
  let norm (a, b) =
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg (Fmt.str "Coupling.make: edge (%d,%d) out of range" a b);
    if a = b then
      invalid_arg (Fmt.str "Coupling.make: self-loop on qubit %d" a);
    (min a b, max a b)
  in
  let edges = List.sort_uniq Stdlib.compare (List.map norm edge_list) in
  if List.length edges <> List.length edge_list then
    invalid_arg "Coupling.make: duplicate edge";
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  Array.iteri (fun i l -> adj.(i) <- List.sort Stdlib.compare l) adj;
  let deg = Array.map List.length adj in
  (* CSR image of [adj]: off.(q) .. off.(q+1)-1 index q's neighbours *)
  let off = Array.make (n + 1) 0 in
  for q = 0 to n - 1 do
    off.(q + 1) <- off.(q) + deg.(q)
  done;
  let nbr = Array.make (max 1 off.(n)) 0 in
  let fill = Array.copy off in
  Array.iteri
    (fun q l ->
      List.iter
        (fun v ->
          nbr.(fill.(q)) <- v;
          fill.(q) <- fill.(q) + 1)
        l)
    adj;
  let chosen =
    match backend with
    | Some b -> b
    | None -> if n > dense_limit then Sparse else Dense
  in
  match chosen with
  | Dense ->
    let adjm = Bytes.make (n * n) '\000' in
    List.iter
      (fun (a, b) ->
        Bytes.set adjm ((a * n) + b) '\001';
        Bytes.set adjm ((b * n) + a) '\001')
      edges;
    let dist = Array.make (n * n) unreachable_distance in
    let queue = Array.make (max 1 n) 0 in
    for src = 0 to n - 1 do
      bfs_into off nbr dist ~base:(src * n) queue src
    done;
    let diameter =
      Array.fold_left (fun acc d -> if d > acc then d else acc) 0 dist
    in
    let rows = Array.init n (fun _ -> Atomic.make None) in
    {
      name; n; adj; adjm = Some adjm; deg; edges; off; nbr;
      provider = Table { table = dist; diameter; rows };
      coords;
    }
  | Sparse ->
    let landmarks, lrows = pick_landmarks n off nbr in
    let coord_step =
      match coords with
      | None -> 0.
      | Some cs ->
        List.fold_left
          (fun acc (a, b) ->
            let xa, ya = cs.(a) and xb, yb = cs.(b) in
            Float.max acc
              (Float.max (Float.abs (xa -. xb)) (Float.abs (ya -. yb))))
          0. edges
    in
    {
      name; n; adj; adjm = None; deg; edges; off; nbr;
      provider =
        Lazy_rows
          {
            rows = Array.init n (fun _ -> Atomic.make None);
            resident = Atomic.make 0;
            clock = Atomic.make 0;
            diam = Atomic.make (-1);
            landmarks;
            lrows;
            coord_step;
          };
      coords;
    }

let name t = t.name
let n_qubits t = t.n
let edges t = t.edges
let neighbors t q = t.adj.(q)
let degree t q = t.deg.(q)
let backend t = match t.provider with Table _ -> Dense | Lazy_rows _ -> Sparse

(* Both endpoints are validated: an out-of-range [a] would otherwise index a
   wrong row of the flat tables (or escape into a bare [Bytes.get]
   exception), turning a caller bug into silent garbage. *)
let check_pair fn t a b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n then
    invalid_arg (Fmt.str "Coupling.%s: qubit pair (%d,%d) out of range" fn a b)

let adjacent t a b =
  check_pair "adjacent" t a b;
  match t.adjm with
  | Some m -> Bytes.get m ((a * t.n) + b) <> '\000'
  | None ->
    (* degree-bounded CSR scan: lattices cap degree at 3–4 *)
    let rec scan i hi = i < hi && (t.nbr.(i) = b || scan (i + 1) hi) in
    scan t.off.(a) t.off.(a + 1)

let distance_row t src =
  if src < 0 || src >= t.n then
    invalid_arg (Fmt.str "Coupling.distance_row: qubit %d out of range" src);
  let memoise rows compute =
    match Atomic.get rows.(src) with
    | Some r -> r
    | None ->
      let r = compute () in
      if Atomic.compare_and_set rows.(src) None (Some r) then r
      else
        (* another domain published first; both arrays are identical, but
           return the canonical one so aliasing stays predictable *)
        (match Atomic.get rows.(src) with Some r -> r | None -> r)
  in
  match t.provider with
  | Table d -> memoise d.rows (fun () -> Array.sub d.table (src * t.n) t.n)
  | Lazy_rows s ->
    (match Atomic.get s.rows.(src) with
    | Some r -> r
    | None ->
      let r = bfs_row t.n t.off t.nbr src in
      if Atomic.compare_and_set s.rows.(src) None (Some r) then begin
        if Atomic.fetch_and_add s.resident 1 >= row_cache_limit then begin
          (* over the cap: drop one other resident row, round-robin. The
             CAS keeps the decrement honest under domain races; a full
             unsuccessful sweep (everything contended or already empty)
             just leaves the cache transiently over cap, which is
             benign. *)
          let rec evict budget =
            if budget > 0 then begin
              let v = Atomic.fetch_and_add s.clock 1 mod t.n in
              if v = src then evict (budget - 1)
              else
                match Atomic.get s.rows.(v) with
                | Some _ as old ->
                  if Atomic.compare_and_set s.rows.(v) old None then
                    Atomic.decr s.resident
                  else evict (budget - 1)
                | None -> evict (budget - 1)
            end
          in
          evict t.n
        end;
        r
      end
      else (match Atomic.get s.rows.(src) with Some r -> r | None -> r))

(* Early-exit point BFS for the sparse backend's single-pair queries.
   The scratch (distance stamps + frontier ring) is domain-local — pool
   domains routing concurrently never share it — and grown to the largest
   device the domain has seen. Only the visited prefix of the ring is
   wiped afterwards, so a query costs O(ball(d(a,b))), not O(V), and
   allocates nothing. Exact by BFS level order: the first time [dst] is
   discovered its distance is final. *)
type point_scratch = { mutable pdist : int array; mutable pqueue : int array }

let point_scratch_key =
  Domain.DLS.new_key (fun () -> { pdist = [||]; pqueue = [||] })

let point_bfs t src dst =
  let s = Domain.DLS.get point_scratch_key in
  if Array.length s.pdist < t.n then begin
    s.pdist <- Array.make t.n unreachable_distance;
    s.pqueue <- Array.make (max 1 t.n) 0
  end;
  let dist = s.pdist and queue = s.pqueue in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let found = ref unreachable_distance in
  (try
     while !head < !tail do
       let u = queue.(!head) in
       incr head;
       let du1 = dist.(u) + 1 in
       for i = t.off.(u) to t.off.(u + 1) - 1 do
         let v = t.nbr.(i) in
         if dist.(v) = unreachable_distance then begin
           if v = dst then begin
             found := du1;
             raise Exit
           end;
           dist.(v) <- du1;
           queue.(!tail) <- v;
           incr tail
         end
       done
     done
   with Exit -> ());
  for i = 0 to !tail - 1 do
    dist.(queue.(i)) <- unreachable_distance
  done;
  !found

let distance_raw t a b =
  check_pair "distance_raw" t a b;
  match t.provider with
  | Table d -> d.table.((a * t.n) + b)
  | Lazy_rows s ->
    if a = b then 0
    else (
      (* resident-row fast path, either endpoint (distance is symmetric);
         a double miss runs the early-exit BFS without publishing a row —
         routing working sets exceed any bounded row cache, so the hot
         path must never depend on residency *)
      match Atomic.get s.rows.(a) with
      | Some r -> r.(b)
      | None -> (
        match Atomic.get s.rows.(b) with
        | Some r -> r.(a)
        | None -> point_bfs t a b))

let reachable t a b =
  check_pair "reachable" t a b;
  distance_raw t a b >= 0

let distance t a b =
  check_pair "distance" t a b;
  let d = distance_raw t a b in
  if d < 0 then
    invalid_arg
      (Fmt.str
         "Coupling.distance: qubits %d and %d lie in disconnected components"
         a b)
  else d

let distance_table t =
  match t.provider with
  | Table d -> d.table
  | Lazy_rows _ ->
    invalid_arg
      (Fmt.str
         "Coupling.distance_table: %s uses the sparse distance backend — \
          read rows through distance_row instead of materialising O(V^2)"
         t.name)

type dsource = Flat of int array | Rows of t

let dsource t =
  match t.provider with Table d -> Flat d.table | Lazy_rows _ -> Rows t

let distance_lower_bound t a b =
  check_pair "distance_lower_bound" t a b;
  if a = b then 0
  else
    match t.provider with
    | Table d ->
      (* exact distances are trivially admissible; disconnected pairs fall
         back to the weakest honest bound *)
      let v = d.table.((a * t.n) + b) in
      if v >= 0 then v else 1
    | Lazy_rows s ->
      let lb = ref 1 in
      (match t.coords with
      | Some cs when s.coord_step > 0. ->
        let xa, ya = cs.(a) and xb, yb = cs.(b) in
        let m = Float.max (Float.abs (xa -. xb)) (Float.abs (ya -. yb)) in
        (* the epsilon only ever shrinks the bound: float noise must not
           push it past the true distance *)
        let c = int_of_float (Float.ceil ((m /. s.coord_step) -. 1e-9)) in
        if c > !lb then lb := c
      | Some _ | None -> ());
      Array.iter
        (fun row ->
          let da = row.(a) and db = row.(b) in
          if da >= 0 && db >= 0 then begin
            let d = abs (da - db) in
            if d > !lb then lb := d
          end)
        s.lrows;
      !lb

let diameter t =
  match t.provider with
  | Table d -> d.diameter
  | Lazy_rows s ->
    let d = Atomic.get s.diam in
    if d >= 0 then d
    else begin
      (* one scratch row reused across sources: O(V) memory, O(V·E) time,
         paid once on first demand (racing domains recompute the same
         value) *)
      let row = Array.make (max 1 t.n) unreachable_distance in
      let queue = Array.make (max 1 t.n) 0 in
      let best = ref 0 in
      for src = 0 to t.n - 1 do
        Array.fill row 0 t.n unreachable_distance;
        bfs_into t.off t.nbr row ~base:0 queue src;
        Array.iter (fun d -> if d > !best then best := d) row
      done;
      Atomic.set s.diam !best;
      !best
    end

let connected t =
  t.n = 0
  ||
  let row = distance_row t 0 in
  Array.for_all (fun d -> d >= 0) row

let rows_cached t =
  match t.provider with
  | Table _ -> t.n
  | Lazy_rows s -> Atomic.get s.resident

let dist_bytes t =
  let word = Sys.word_size / 8 in
  match t.provider with
  | Table _ -> t.n * t.n * word
  | Lazy_rows s ->
    (Atomic.get s.resident + Array.length s.lrows) * t.n * word

let coords t = t.coords
let coord t q = Option.map (fun a -> a.(q)) t.coords

let horizontal_distance t a b =
  match t.coords with
  | None -> None
  | Some cs ->
    let xa, _ = cs.(a) and xb, _ = cs.(b) in
    Some (Float.abs (xa -. xb))

let vertical_distance t a b =
  match t.coords with
  | None -> None
  | Some cs ->
    let _, ya = cs.(a) and _, yb = cs.(b) in
    Some (Float.abs (ya -. yb))

let pp ppf t =
  Fmt.pf ppf "%s: %d qubits, %d edges" t.name t.n (List.length t.edges)
