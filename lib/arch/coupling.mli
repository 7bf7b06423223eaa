(** Undirected coupling graph of a quantum device (the [M = (QH, EH)] of the
    paper's maQAM, Table II), with a pluggable shortest-path provider.

    Two-qubit gates may only execute on qubit pairs joined by an edge.
    Optional planar coordinates per qubit power CODAR's [Hfine] lattice
    tiebreak.

    Devices at or below {!dense_limit} qubits precompute the all-pairs
    matrix [D] by BFS into a single flat row-major [int array] (see
    {!distance_table}), so the router hot path pays one bounds-checked
    load per lookup. Above the threshold the {!Sparse} backend answers
    from per-source BFS rows materialised on demand ({!distance_row}) and
    memoised under a bounded cache (at most {!dense_limit} resident
    rows, round-robin eviction) — a 400-qubit lattice holds O(n)
    distance words at any moment, never n², no matter how long the
    route runs. Disconnected pairs are encoded as
    {!unreachable_distance} (-1), a sentinel that cannot wrap additive
    heuristic arithmetic the way the former [max_int] could. *)

type t

type backend = Dense | Sparse

val dense_limit : int
(** Qubit count above which {!make} selects {!Sparse} automatically (64:
    every fixed evaluation device, Sycamore included, stays dense). *)

val make :
  ?coords:(float * float) array -> ?backend:backend -> name:string ->
  n:int -> (int * int) list -> t
(** [make ~name ~n edges] builds the graph. Edges are undirected; duplicates
    and self-loops are rejected, as are out-of-range endpoints. [coords],
    when given, must have length [n]. [backend] forces a provider (tests
    pin sparse ≡ dense on small devices with it); by default graphs over
    {!dense_limit} qubits go sparse. *)

val name : t -> string
val n_qubits : t -> int

val backend : t -> backend

val edges : t -> (int * int) list
(** Normalised: each as [(lo, hi)], sorted, no duplicates. *)

val neighbors : t -> int -> int list

val degree : t -> int -> int
(** O(1): read from the precomputed degree array. *)

val adjacent : t -> int -> int -> bool
(** Dense: one probe of the precomputed adjacency matrix. Sparse: a
    degree-bounded scan of the CSR neighbour slice (lattices cap degree at
    3–4). Raises [Invalid_argument] if either endpoint is out of range
    (both ends are validated — historically only the second was, letting a
    bad first index read the wrong matrix row). *)

val distance : t -> int -> int -> int
(** Shortest path length in edges. Raises [Invalid_argument] if either
    endpoint is out of range {e or the pair is unreachable} (disconnected
    components): callers that can face disconnected devices must guard with
    {!reachable} first. Never returns a sentinel — the former [max_int]
    convention wrapped to garbage inside heuristic arithmetic. On the
    sparse backend a query reads a resident row of either endpoint when
    one is cached, and otherwise runs an allocation-free early-exit point
    BFS over domain-local scratch — O(ball(d)) work, no row is
    materialised or published. *)

val distance_raw : t -> int -> int -> int
(** Like {!distance} but returns {!unreachable_distance} instead of
    raising on disconnected pairs (out-of-range endpoints still raise).
    This is the router hot-path query: on big sparse devices the routing
    working set exceeds any bounded row cache, so per-pair early-exit
    BFS — rather than full-row recomputation — is what keeps large
    routes linear in traffic, not in device size. *)

val reachable : t -> int -> int -> bool
(** [reachable t a b] is [true] iff a path joins [a] and [b] (every qubit is
    reachable from itself). Raises [Invalid_argument] when out of range. *)

val unreachable_distance : int
(** The sentinel (-1) marking disconnected pairs inside raw rows and
    {!distance_table}. Strictly negative, so [d >= 0] is the reachability
    test. *)

val distance_table : t -> int array
(** The flat row-major [n*n] distance matrix itself: entry [a * n + b] is
    the distance from [a] to [b], or {!unreachable_distance}. Exposed for
    hot loops that index it directly (the incremental SWAP scorer's dense
    path); treat it as read-only — it is the live table, not a copy.
    Raises [Invalid_argument] on the {!Sparse} backend: materialising
    O(V²) there would defeat it — branch on {!backend} and read
    {!distance_row} instead. *)

type dsource =
  | Flat of int array  (** {!distance_table}, indexed [a * n + b] *)
  | Rows of t  (** read through {!distance_raw} *)
(** How the routers' hot loops read distances: the flat table inline on
    the {!Dense} backend, point queries on the {!Sparse} one. A router
    matches on it in an accessor of its own marked for inlining, so a
    dense read is one load with no call. *)

val dsource : t -> dsource

val distance_row : t -> int -> int array
(** [distance_row t src] is the full distance row from [src] ([n] entries,
    {!unreachable_distance} for disconnected targets). Sparse: one BFS on
    first demand, then memoised while resident — the cache holds at most
    {!dense_limit} rows and evicts round-robin beyond that, so a row may
    be recomputed later; an array already returned stays valid (and
    read-only — it may still be the cached row). Dense: a lazily cached
    copy of the table row. Safe to call from pool domains: rows are
    published atomically and racing computations agree. *)

val distance_lower_bound : t -> int -> int -> int
(** An admissible estimate: [distance_lower_bound t a b <= distance t a b]
    whenever [a] and [b] are connected, without materialising any row. The
    sparse backend takes the best of the landmark triangle-inequality gaps
    ([|d(L,a) - d(L,b)|] over ~8 farthest-point-sampled landmark rows) and,
    on coordinate-bearing lattices, the scaled Chebyshev bound
    [ceil(max(|dx|,|dy|) / max-edge-step)]; the dense backend answers
    exactly. For disconnected pairs the value is meaningless (but total). *)

val rows_cached : t -> int
(** Sparse: distance rows currently resident (bounded by {!dense_limit}
    plus transient domain races). Dense: [n] (the whole table exists by
    construction). *)

val dist_bytes : t -> int
(** Bytes currently held by the distance provider — dense: [8·n²]; sparse:
    [8·n·(rows_cached + landmarks)], O(n) by the row-cache bound. The
    [bench scale] complexity table tracks this to pin that big-device
    routes never go O(V²). *)

val diameter : t -> int
(** The largest {e finite} pairwise distance (0 for the empty or edgeless
    graph; disconnected pairs are ignored rather than poisoning the
    value). Dense: precomputed at {!make}. Sparse: computed on first call
    with a reusable scratch row — O(V·E) time, O(V) memory — then cached. *)

val connected : t -> bool

val coords : t -> (float * float) array option
val coord : t -> int -> (float * float) option

val horizontal_distance : t -> int -> int -> float option
(** [|x1 - x2|] when coordinates are available. *)

val vertical_distance : t -> int -> int -> float option

val pp : Format.formatter -> t -> unit
