(** Router instrumentation: mutable counters threaded through
    {!Remapper.run} (and {!Cf_front.front}) so the incremental hot path is
    observable — cache effectiveness, heuristic work, SWAP pressure — from
    [codar_cli map --stats], a route record's [router_stats] and
    perfbench's traced mode. Counting is plain field bumps; the overhead
    is negligible next to a single heuristic evaluation. The daemon's
    own counters live with it, in {!Service.Server}. *)

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

val cf_hit_rate : t -> float
(** Cache hits / front queries, in [0, 1]; [0.] before any query. *)

val pp : Format.formatter -> t -> unit

(** {2 Compilation-cache counters}

    Bumped by {!Cache.t} (lib/cache) under its own lock; the daemon's
    [stats] reply, perfbench and the cache tests read them. *)

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
