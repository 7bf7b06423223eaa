(* One distance provider for every device: [make] builds the all-pairs
   matrix [D] by BFS into a flat n×n table, and every query reads it.
   [max_qubits] bounds n, so the largest table is 8 MB. *)

let max_qubits = 1024

(* A complete graph on 128 qubits has 8128 edges. Past this bound the
   edge list, not the table, is what a build costs. *)
let max_edges = 8 * max_qubits

type t = {
  name : string;
  n : int;
  adj : int list array;
  deg : int array;
  edges : (int * int) list;
  dist : int array;
      (* n×n all-pairs shortest paths, row-major ([a * n + b]); a single
         flat array so the router hot path is one cache line away from a
         distance, not two pointer hops. [unreachable_distance] (-1)
         marks disconnected pairs: a sign test, unlike the former
         [max_int] sentinel, can never poison the heuristic's additive
         arithmetic. *)
  diameter : int;
  connected : bool;
  coords : (float * float) array option;
  index : index;
}

and index = {
  off : int array;
  nbr : int array;
  eid : int array;
  eu : int array;
  ev : int array;
}

let unreachable_distance = -1

(* Fill the table row of [src] (starting at [base = src * n]) with
   distances from [src], and return how many qubits it reached; they are
   [queue.(0 ..)] in order of distance, so the last is the farthest. The
   adjacency is consulted in CSR form ([off]/[nbr] flat int arrays) and
   the BFS frontier is a reusable int array ring — no per-source
   [Queue.t] or boxed-list traffic, which is what makes [make] cheap
   enough to sit in a micro-benchmark (core/coupling-sycamore). *)
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
  done;
  !tail

let make ?coords ~name ~n edge_list =
  if n < 0 then invalid_arg "Coupling.make: negative qubit count";
  if n > max_qubits then
    invalid_arg
      (Fmt.str "Coupling.make: %d qubits, past the bound of %d" n max_qubits);
  if List.compare_length_with edge_list max_edges > 0 then
    invalid_arg
      (Fmt.str "Coupling.make: more than the bound of %d edges" max_edges);
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
  (* edge ids: ranks in the sorted [edges], beside each neighbour *)
  let n_edges = List.length edges in
  let eu = Array.make n_edges 0 and ev = Array.make n_edges 0 in
  let eid = Array.make (Array.length nbr) 0 in
  let set p q e =
    let i = ref off.(p) in
    while nbr.(!i) <> q do
      incr i
    done;
    eid.(!i) <- e
  in
  List.iteri
    (fun e (u, v) ->
      eu.(e) <- u;
      ev.(e) <- v;
      set u v e;
      set v u e)
    edges;
  let dist = Array.make (n * n) unreachable_distance in
  let queue = Array.make (max 1 n) 0 in
  let diameter = ref 0 and connected = ref true in
  for src = 0 to n - 1 do
    let reached = bfs_into off nbr dist ~base:(src * n) queue src in
    let farthest = dist.((src * n) + queue.(reached - 1)) in
    if farthest > !diameter then diameter := farthest;
    if reached < n then connected := false
  done;
  {
    name; n; adj; deg; edges; dist; diameter = !diameter;
    connected = !connected; coords; index = { off; nbr; eid; eu; ev };
  }

let name t = t.name
let n_qubits t = t.n
let edges t = t.edges
let neighbors t q = t.adj.(q)
let degree t q = t.deg.(q)

(* Both endpoints are validated: an out-of-range [a] would otherwise index a
   wrong row of the flat table, turning a caller bug into silent garbage. *)
let check_pair fn t a b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n then
    invalid_arg (Fmt.str "Coupling.%s: qubit pair (%d,%d) out of range" fn a b)

let adjacent t a b =
  check_pair "adjacent" t a b;
  t.dist.((a * t.n) + b) = 1

let distance_raw t a b =
  check_pair "distance_raw" t a b;
  t.dist.((a * t.n) + b)

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

let distance_table t = t.dist
let diameter t = t.diameter
let connected t = t.connected
let rows_cached t = t.n
let dist_bytes t = t.n * t.n * (Sys.word_size / 8)

let coords t = t.coords
let index t = t.index

let pp ppf t =
  Fmt.pf ppf "%s: %d qubits, %d edges" t.name t.n (List.length t.edges)
