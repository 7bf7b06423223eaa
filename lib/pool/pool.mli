(** Fixed-size Domain work pool with a deterministic batch API.

    OCaml 5 gives true shared-memory parallelism through [Domain], but the
    experiment harness and CLI must stay {e reproducible}: routing the same
    inputs with [--jobs 8] has to produce byte-identical output to
    [--jobs 1]. The pool guarantees that by construction:

    - tasks are identified by their {e index} in the input array, and every
      result is stored in the slot of its index — scheduling order can never
      reorder results;
    - task functions receive their index, so per-task RNG can be seeded by
      index (never by wall clock or by which domain ran the task);
    - when tasks raise, every task still runs, and the exception of the
      {e lowest-indexed} failing task is re-raised (with its backtrace) —
      the same exception [jobs = 1] surfaces first.

    Workers are plain [Domain]s coordinated with [Mutex]/[Condition] (no
    domainslib). A pool with [jobs = 1] spawns no domains and runs batches
    inline in the caller, so the sequential path is the parallel path.
    Task exceptions are confined to their result slot; a failing task never
    kills a worker or wedges the pool, which stays usable for further
    batches.

    Batches must not be submitted from inside a task of the same pool
    (no re-entrancy), and a pool must only be driven from the domain that
    created it. *)

type t

val create : jobs:int -> t
(** [create ~jobs] starts a pool of [jobs] workers ([jobs - 1] spawned
    domains plus the submitting caller, which participates in every batch).
    Raises [Invalid_argument] unless [1 <= jobs <= 256]. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to [1, 256] — what
    [--jobs 0] resolves to in the CLIs. *)

val shutdown : t -> unit
(** Join all workers. Idempotent. The pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down even
    when [f] raises. *)

val map : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map t f tasks] computes [[| f 0 tasks.(0); f 1 tasks.(1); … |]] with up
    to [jobs t] tasks in flight. The result array is in task order
    regardless of scheduling. If any task raises, all tasks still run, then
    the lowest-indexed task's exception is re-raised. *)
