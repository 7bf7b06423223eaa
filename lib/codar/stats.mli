(** Router instrumentation: mutable counters threaded through
    {!Remapper.run} (and {!Cf_front.front}) so the incremental hot path is
    observable — cache effectiveness, heuristic work, SWAP pressure — from
    [codar_cli map --stats] and [bench/main.exe perf]. Counting is plain
    field bumps; the overhead is negligible next to a single heuristic
    evaluation. *)

type t = {
  mutable cf_recomputes : int;
      (** full commutative-front window scans actually performed *)
  mutable cf_cache_hits : int;
      (** front queries answered from the cached front (no rescan) *)
  mutable pair_resolutions : int;
      (** log→phys resolutions of the CF two-qubit pair list (once per
          front × layout change, not per heuristic query) *)
  mutable heuristic_evals : int;
      (** {e full} [Heuristic.evaluate_phys] runs over the whole CF pair
          list — since PR 6 only fine-priority tie-breaks and forced-swap
          comparisons need one; delta updates cover the rest *)
  mutable swap_rescores : int;
      (** incremental candidate (re)scorings, each O(pairs incident to the
          two swapped qubits). [heuristic_evals + swap_rescores] is the
          total scoring work; the old conflated counter measured neither
          honestly *)
  mutable swap_candidates : int;
      (** distinct candidate-edge activations (once per cycle per edge,
          plus re-activation if an edge regains justification after a
          SWAP) — no longer re-counts survivors on every regeneration *)
  mutable swaps_inserted : int;  (** SWAPs the router inserted *)
  mutable forced_swaps : int;  (** deadlock escapes (§IV-D) *)
  mutable gates_issued : int;  (** program gates issued *)
  mutable cycles : int;  (** simulated-time advances *)
}

val create : unit -> t
(** All counters zero. *)

val reset : t -> unit

val cf_hit_rate : t -> float
(** Cache hits / front queries, in [0, 1]; [0.] before any query. *)

val pp : Format.formatter -> t -> unit

(** {2 Compilation-cache counters}

    Bumped by {!Cache.t} (lib/cache) under its own lock; the daemon's
    [stats] reply and the cache tests read them. Living here keeps every
    observable counter of the system under one roof. *)

type cache = {
  mutable hits : int;  (** lookups answered from the cache *)
  mutable misses : int;  (** lookups that found nothing *)
  mutable insertions : int;  (** entries stored (one per route computed) *)
  mutable evictions : int;  (** entries dropped to respect a cap *)
  mutable invalidations : int;  (** entries dropped by an explicit clear *)
  mutable memo_hits : int;
      (** hits found through the request memo, without a parse; each is
          also one of [hits] *)
}

val cache_create : unit -> cache
val cache_reset : cache -> unit

val cache_hit_rate : cache -> float
(** Hits / lookups, in [0, 1]; [0.] before any lookup. *)

(** {2 Routing-service counters}

    Bumped by {!Service.Server}: [routes_computed] by its dispatcher
    thread under the server lock, every other counter by its event-loop
    thread, which also reads them all for a [stats] reply. [coalesced] is
    the load-bearing one: a request that found an identical fingerprint
    already in flight and waited for that computation instead of starting
    its own — the duplicate-suppression guarantee is asserted through
    it. *)

type service = {
  mutable requests : int;  (** frames parsed into a request *)
  mutable responses_ok : int;
  mutable responses_err : int;
  mutable routes_computed : int;  (** actual router invocations *)
  mutable coalesced : int;  (** requests that piggybacked on an in-flight route *)
  mutable connections : int;  (** clients accepted *)
  mutable disconnects : int;  (** clients lost mid-conversation, survived *)
  mutable timeouts : int;
      (** requests answered [deadline_exceeded]: a stalled mid-frame
          client or a route that outlived [--timeout-ms] *)
  mutable overloads : int;
      (** requests answered [overloaded]: the dispatch queue was full
          when they arrived (admission control, not blocking) *)
  mutable conns_active : int;  (** connections currently open *)
  mutable conns_peak : int;  (** high-watermark of [conns_active] *)
  mutable bytes_in : int;  (** request bytes read off client sockets *)
  mutable bytes_out : int;  (** reply bytes written to client sockets *)
  mutable wb_stalls : int;
      (** backpressure episodes: a slow-reading connection whose write
          buffer crossed the high-watermark and was paused for reading *)
}

val service_create : unit -> service
val pp_service : Format.formatter -> service -> unit
