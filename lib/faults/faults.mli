(** Deterministic, seeded fault injection.

    A {!plan} assigns each named injection {!point} a firing rate (and,
    for stall points, a delay); the decision for the [k]-th query of a
    point is a pure function of [(plan seed, point, k)] via a SplitMix64
    finalizer — the same mixing {!Fuzz.Gen} uses for case seeds — so a
    fault run replays exactly from one integer.

    Injection points sit on the daemon's side of the service stack (the
    reads of {!Service.Frame.read_once}, the reply frames
    {!Service.Server} queues), in the domain {!Pool} and on the {!Cache}
    persistence path; the client's blocking reader and writer never
    inject. Call sites query {!fire} (or the
    {!pause}/{!raise_if} conveniences); when no plan is armed the query
    is a single atomic load and compare — cheap enough to leave in
    production builds, which is the point: the hardened daemon runs the
    very code the fault suite exercises.

    Arming is process-global (one plan at a time); {!fire} and the
    per-point counters are thread- and domain-safe. Determinism of a
    whole run additionally requires the call sites to be driven in a
    deterministic order, which the fault-soak test arranges by talking
    to the daemon over sequential connections (docs/ROBUSTNESS.md). *)

type point =
  | Frame_short_read
      (** the server's read takes at most one byte *)
  | Frame_read_eof  (** mid-frame EOF: the peer "vanishes" *)
  | Frame_stall  (** artificial latency before a server read *)
  | Frame_write_error
      (** a reply frame fails as a write to a vanished client would: the
          server drops the connection *)
  | Pool_task_exn  (** a pool task raises {!Injected} before running *)
  | Pool_latency  (** artificial latency inside a pool task *)
  | Cache_save_disk_full
      (** persistence aborts half-written with [Sys_error] (ENOSPC) *)
  | Cache_save_corrupt
      (** the persisted payload has one byte flipped (after its
          checksum was computed, so a later load must reject it) *)
  | Cache_save_stall
      (** delay between writing the temp file and the atomic rename —
          the window a crash-recovery test kills the process in *)

exception Injected of string
(** Raised by {!raise_if} (and {!point:Pool_task_exn} call sites). *)

val mix : seed:int -> index:int -> int
(** SplitMix64 finalizer over [(seed, index)]: a well-spread
    non-negative derived seed. Shared here so retry jitter
    ({!Service.Client}) and per-case fault plans use one mixer. *)

type plan

val plan : ?delays_ms:(point * int) list -> seed:int -> (point * float) list -> plan
(** [plan ~seed rates] fires each listed point with its rate in
    [\[0, 1\]]; unlisted points never fire. [delays_ms] sets the fixed
    sleep for stall points (default 2 ms). Raises [Invalid_argument]
    on a rate outside [\[0, 1\]] or a negative delay. *)

val soak : seed:int -> plan
(** Every point at a modest rate with millisecond stalls — the pinned
    plan behind the fault-soak test and [codar_cli serve --faults]. *)

val persist_crash : seed:int -> plan
(** {!point:Cache_save_stall} at rate 1.0 with a 3 s delay and nothing
    else: every cache save parks between temp-write and rename, giving
    the crash-recovery test a wide window to [kill -9] in. *)

val arm : plan -> unit
(** Make [plan] current (replacing any armed plan; counters reset). *)

val disarm : unit -> unit

val armed : unit -> bool

val with_plan : plan -> (unit -> 'a) -> 'a
(** Arm, run, disarm (also on exceptions). *)

val fire : point -> bool
(** Deterministic decision for this point's next query. Always [false]
    — and counter-free, one atomic load — when no plan is armed. *)

val pause : point -> unit
(** {!fire}, then sleep the point's configured delay when it fired. *)

val raise_if : point -> string -> unit
(** {!fire}, then raise [Injected msg] when it fired. *)

val fired : unit -> (string * int) list
(** Per-point injection counts of the armed plan, every point in
    declaration order; [\[\]] when disarmed. The daemon's [stats] reply
    republishes this. *)

val total_fired : unit -> int
