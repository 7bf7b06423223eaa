(** Content-addressed compilation cache: a thread-safe LRU from request
    {!Fingerprint} to {!Report.Record.t}.

    The value cached is the full machine-readable routing record — the
    very bytes a service reply or a JSON report serialises — so a cache
    hit reproduces the cold result {e byte-identically}. All operations
    are O(1) behind one lock and safe to call from any thread or domain.
    Hit/miss/insertion/eviction/invalidation counters are
    {!Codar.Stats.cache} values, shared with the daemon's [stats] reply.

    Each entry keeps its record's compact JSON alongside the record, so
    a hit can be answered with stored bytes. Capacity is bounded by an
    entry cap and an optional byte cap (accounted as key + compact-JSON
    size per entry, plus the entry's memo keys); the least recently used
    entries are evicted first. An oversized single entry is kept (alone)
    rather than thrashed.

    A request memo lets a repeated request skip decoding, parsing and
    fingerprinting: {!memoise} attaches a request key to a cached record,
    {!find_memo} answers it. Keys are opaque strings chosen by the
    caller; the daemon uses the raw line of an id-less route frame and
    [Service.Engine.request_key] for every other route request, two key
    spaces that cannot overlap (a line starts with [{], a request key
    with [b] or [q]). The memo holds no records — its keys go with their
    record — and is never persisted. *)

module Fingerprint : module type of Fingerprint
(** Request fingerprinting — the cache key ([Cache.Fingerprint]). *)

type t

val create : ?max_bytes:int -> max_entries:int -> unit -> t
(** Raises [Invalid_argument] when a cap is < 1. *)

val find : t -> string -> Report.Record.t option
(** Lookup by fingerprint; a hit refreshes recency. Counts one hit or
    miss. *)

type hit = {
  fingerprint : string;
  record : Report.Record.t;
  json : string;
      (** [Report.Json.to_string ~indent:0 (Report.Record.to_json record)],
          kept from {!add} so a reply can splice it in *)
}

val find_hit : t -> string -> hit option
(** {!find}, with the record's stored JSON. *)

val add : t -> string -> Report.Record.t -> unit
(** Insert (or replace) as most-recent, then evict LRU entries until both
    caps hold. Counts one insertion (plus any evictions). *)

val hit_of_record : fingerprint:string -> Report.Record.t -> hit
(** The entry {!add} stores for a record, its compact JSON encoded here:
    encode outside any lock, then {!add_hit}. *)

val add_hit : t -> hit -> unit
(** {!add} of an entry from {!hit_of_record}, its JSON stored as is. *)

val find_memo : t -> string -> hit option
(** [find_memo t request] is the entry that [request] was memoised to,
    when that record is still cached. A hit counts one cache
    hit (and one memo hit) and refreshes recency, as {!find} does; a miss
    counts nothing, so the caller's fallback {!find} counts it once.
    Keys are hashed whole and compared byte for byte: a hash collision
    can only miss. *)

val memoise : t -> string -> fingerprint:string -> unit
(** [memoise t request ~fingerprint] attaches the request key to the
    record cached under [fingerprint] — a no-op when there is none, the
    key is already attached, or it would take all keys past
    {!memo_max_bytes}. A record keeps its {!memo_per_record} newest keys;
    their bytes count toward its size, so the byte cap bounds them (LRU
    entries other than this one are evicted to respect it). Keys go with
    their record on eviction, replacement and {!clear}. *)

val memo_per_record : int

val memo_max_bytes : int
(** The bytes all memo keys may hold together, whatever the caps
    (16 MiB). *)

val memo_length : t -> int
(** Request keys currently memoised. *)

val length : t -> int
val bytes : t -> int
(** Current approximate footprint in bytes (the persistence-file size of
    the entries, minus framing, plus their memo keys). *)

val max_entries : t -> int
val max_bytes : t -> int option

val clear : t -> unit
(** Drop everything; counts each dropped entry as an invalidation (not an
    eviction). *)

val counters : t -> Codar.Stats.cache
(** A consistent snapshot (copy) of the counters. *)

(** {2 Persistence}

    On disk: a one-line integrity header
    ["codar-cache-sum/1 <fnv1a64-hex> <payload-bytes>"] followed by one
    JSON payload (schema ["codar-cache/1"]), entries MRU-first. Loading
    restores both contents and recency order and starts with clean
    counters; records re-serialise byte-identically
    ({!Report.Record.of_json}). Files from before the header existed
    (plain JSON) still load. *)

val save : t -> string -> unit
(** Crash-safe write: serialise + checksum into a unique temp file in
    the target's directory, [fsync], atomically rename over the target,
    then best-effort [fsync] the directory. A crash at any point leaves
    the target as either the complete old or the complete new snapshot,
    never a torn mix. Raises [Sys_error] on I/O failure (the temp file
    is removed; the target is untouched). Honours the
    {!Faults.point}[.Cache_save_*] injection points. *)

type load_error =
  | Io of string  (** the file could not be opened or read *)
  | Corrupt of string
      (** checksum mismatch, truncation, or a mangled header — the
          typed cold-start: callers log and continue with a fresh
          cache rather than aborting *)
  | Malformed of string  (** JSON or schema errors in the payload *)

val load_error_to_string : load_error -> string

val load :
  ?max_bytes:int -> max_entries:int -> string -> (t, load_error) result
(** Read, verify the checksum when the header is present, parse,
    {!of_json}; never raises on missing, truncated or corrupt files.
    Caps are the {e new} cache's caps — a file larger than them loads
    truncated to the most recent entries. *)
