type t = {
  mutable cf_recomputes : int;
  mutable cf_cache_hits : int;
  mutable pair_resolutions : int;
  mutable heuristic_evals : int;
  mutable swap_rescores : int;
  mutable swap_candidates : int;
  mutable swaps_inserted : int;
  mutable forced_swaps : int;
  mutable gates_issued : int;
  mutable cycles : int;
}

let create () =
  {
    cf_recomputes = 0;
    cf_cache_hits = 0;
    pair_resolutions = 0;
    heuristic_evals = 0;
    swap_rescores = 0;
    swap_candidates = 0;
    swaps_inserted = 0;
    forced_swaps = 0;
    gates_issued = 0;
    cycles = 0;
  }

let cf_hit_rate s =
  let total = s.cf_recomputes + s.cf_cache_hits in
  if total = 0 then 0. else float_of_int s.cf_cache_hits /. float_of_int total

let pp ppf s =
  Fmt.pf ppf
    "cf: %d recomputes, %d cache hits (%.1f%% hit rate); %d pair \
     resolutions; %d heuristic evals; %d swap rescores; %d swap candidates; \
     %d swaps (%d forced); %d gates issued; %d cycles"
    s.cf_recomputes s.cf_cache_hits
    (100. *. cf_hit_rate s)
    s.pair_resolutions s.heuristic_evals s.swap_rescores s.swap_candidates
    s.swaps_inserted s.forced_swaps s.gates_issued s.cycles

(* --------------------------------------------- compilation-cache counters *)

type cache = {
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable memo_hits : int;
}

let cache_create () =
  {
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    invalidations = 0;
    memo_hits = 0;
  }

let cache_reset c =
  c.hits <- 0;
  c.misses <- 0;
  c.insertions <- 0;
  c.evictions <- 0;
  c.invalidations <- 0;
  c.memo_hits <- 0

let cache_hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0. else float_of_int c.hits /. float_of_int total
