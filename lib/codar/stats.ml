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

let reset s =
  s.cf_recomputes <- 0;
  s.cf_cache_hits <- 0;
  s.pair_resolutions <- 0;
  s.heuristic_evals <- 0;
  s.swap_rescores <- 0;
  s.swap_candidates <- 0;
  s.swaps_inserted <- 0;
  s.forced_swaps <- 0;
  s.gates_issued <- 0;
  s.cycles <- 0

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

let pp_cache ppf c =
  Fmt.pf ppf
    "cache: %d hits, %d misses (%.1f%% hit rate); %d insertions; %d \
     evictions; %d invalidations; %d memo hits"
    c.hits c.misses
    (100. *. cache_hit_rate c)
    c.insertions c.evictions c.invalidations c.memo_hits

(* ----------------------------------------------- routing-service counters *)

type service = {
  mutable requests : int;
  mutable responses_ok : int;
  mutable responses_err : int;
  mutable routes_computed : int;
  mutable coalesced : int;
  mutable connections : int;
  mutable disconnects : int;
  mutable timeouts : int;
  mutable overloads : int;
  mutable conns_active : int;
  mutable conns_peak : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable wb_stalls : int;
}

let service_create () =
  {
    requests = 0;
    responses_ok = 0;
    responses_err = 0;
    routes_computed = 0;
    coalesced = 0;
    connections = 0;
    disconnects = 0;
    timeouts = 0;
    overloads = 0;
    conns_active = 0;
    conns_peak = 0;
    bytes_in = 0;
    bytes_out = 0;
    wb_stalls = 0;
  }

let service_reset s =
  s.requests <- 0;
  s.responses_ok <- 0;
  s.responses_err <- 0;
  s.routes_computed <- 0;
  s.coalesced <- 0;
  s.connections <- 0;
  s.disconnects <- 0;
  s.timeouts <- 0;
  s.overloads <- 0;
  s.conns_active <- 0;
  s.conns_peak <- 0;
  s.bytes_in <- 0;
  s.bytes_out <- 0;
  s.wb_stalls <- 0

let pp_service ppf s =
  Fmt.pf ppf
    "service: %d requests (%d ok, %d err); %d routes computed, %d \
     coalesced; %d connections (%d active, peak %d), %d disconnects; %d \
     timeouts, %d overloads; %d B in, %d B out, %d write stalls"
    s.requests s.responses_ok s.responses_err s.routes_computed s.coalesced
    s.connections s.conns_active s.conns_peak s.disconnects s.timeouts
    s.overloads s.bytes_in s.bytes_out s.wb_stalls
