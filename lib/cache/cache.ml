(* Thread-safe LRU of routed results, keyed by request fingerprint.

   One mutex guards the whole structure (hash table + intrusive recency
   list + counters); operations are O(1) plus hashing. Sizes are accounted
   as key length + compact-JSON length of the record — the same bytes a
   persistence file or a service reply pays — so the byte cap tracks real
   memory within a small constant.

   The request memo maps a request key (the request text and its options,
   built by the caller) straight to a record's node, so a repeated request
   skips parsing and fingerprinting. Keys hang off their node: they count
   toward its size, at most [memo_per_record] per node, and go with the
   node when it is evicted, replaced or cleared. All keys together stay
   under [memo_max_bytes]. The memo holds no records of its own and is
   never persisted. *)

(* [cache.ml] is the library's entry module: re-export the fingerprint so
   users see [Cache.Fingerprint]. *)
module Fingerprint = Fingerprint

type node = {
  key : string;
  record : Report.Record.t;
  mutable size : int;  (* key + record, plus the memo keys *)
  mutable memo_keys : string list;  (* newest first *)
  mutable prev : node option; (* towards MRU *)
  mutable next : node option; (* towards LRU *)
}

type t = {
  max_entries : int;
  max_bytes : int option;
  table : (string, node) Hashtbl.t;
  memo : (string, node) Hashtbl.t;
      (* request key -> node; a string key is hashed whole and compared
         byte for byte, so a hash collision can only miss *)
  mutable memo_bytes : int;
  counters : Codar.Stats.cache;
  m : Mutex.t;
  mutable head : node option; (* MRU *)
  mutable tail : node option; (* LRU *)
  mutable bytes : int;
}

let entry_size key record =
  String.length key
  + String.length (Report.Json.to_string ~indent:0 (Report.Record.to_json record))

let create ?max_bytes ~max_entries () =
  if max_entries < 1 then
    invalid_arg (Fmt.str "Cache.create: max_entries = %d < 1" max_entries);
  (match max_bytes with
  | Some b when b < 1 ->
    invalid_arg (Fmt.str "Cache.create: max_bytes = %d < 1" b)
  | Some _ | None -> ());
  {
    max_entries;
    max_bytes;
    table = Hashtbl.create 64;
    memo = Hashtbl.create 64;
    memo_bytes = 0;
    counters = Codar.Stats.cache_create ();
    m = Mutex.create ();
    head = None;
    tail = None;
    bytes = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* list surgery — caller holds the lock *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* Unlink [n] and drop it with its memo keys. *)
let remove t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  List.iter
    (fun k ->
      Hashtbl.remove t.memo k;
      t.memo_bytes <- t.memo_bytes - String.length k)
    n.memo_keys;
  t.bytes <- t.bytes - n.size

let over_caps t =
  Hashtbl.length t.table > t.max_entries
  || match t.max_bytes with Some b -> t.bytes > b | None -> false

(* Evict LRU entries until both caps hold — but never [keep], the entry
   just inserted or keyed: a single record larger than max_bytes still
   caches (alone) rather than thrashing. *)
let enforce_caps t ~keep =
  let rec go () =
    match t.tail with
    | Some lru when over_caps t && lru != keep ->
      remove t lru;
      t.counters.Codar.Stats.evictions <-
        t.counters.Codar.Stats.evictions + 1;
      go ()
    | Some _ | None -> ()
  in
  go ()

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None ->
        t.counters.Codar.Stats.misses <- t.counters.Codar.Stats.misses + 1;
        None
      | Some n ->
        t.counters.Codar.Stats.hits <- t.counters.Codar.Stats.hits + 1;
        unlink t n;
        push_front t n;
        Some n.record)

let find_memo t request =
  locked t (fun () ->
      match Hashtbl.find_opt t.memo request with
      | None -> None
      | Some n ->
        t.counters.Codar.Stats.hits <- t.counters.Codar.Stats.hits + 1;
        t.counters.Codar.Stats.memo_hits <-
          t.counters.Codar.Stats.memo_hits + 1;
        unlink t n;
        push_front t n;
        Some (n.key, n.record))

let memo_per_record = 4

(* Without a byte cap, 1024 records x 4 keys of up to an 8 MiB request
   frame each could pin 32 GiB of request text; the warm texts of the
   paper suite are at most 16 KB. *)
let memo_max_bytes = 16 * 1024 * 1024

let memoise t request ~fingerprint =
  locked t (fun () ->
      match Hashtbl.find_opt t.table fingerprint with
      | Some n
        when (not (Hashtbl.mem t.memo request))
             && t.memo_bytes + String.length request <= memo_max_bytes ->
        let forget k =
          Hashtbl.remove t.memo k;
          n.size <- n.size - String.length k;
          t.bytes <- t.bytes - String.length k;
          t.memo_bytes <- t.memo_bytes - String.length k
        in
        (* a record keeps its newest few keys *)
        List.iteri
          (fun i k -> if i >= memo_per_record - 1 then forget k)
          n.memo_keys;
        n.memo_keys <-
          request
          :: List.filteri (fun i _ -> i < memo_per_record - 1) n.memo_keys;
        Hashtbl.replace t.memo request n;
        n.size <- n.size + String.length request;
        t.bytes <- t.bytes + String.length request;
        t.memo_bytes <- t.memo_bytes + String.length request;
        enforce_caps t ~keep:n
      | Some _ | None -> ())

let add t key record =
  let size = entry_size key record in
  locked t (fun () ->
      (* replace silently: same fingerprint, refreshed record *)
      Option.iter (remove t) (Hashtbl.find_opt t.table key);
      let n = { key; record; size; memo_keys = []; prev = None; next = None } in
      Hashtbl.replace t.table key n;
      push_front t n;
      t.bytes <- t.bytes + size;
      t.counters.Codar.Stats.insertions <-
        t.counters.Codar.Stats.insertions + 1;
      enforce_caps t ~keep:n)

let length t = locked t (fun () -> Hashtbl.length t.table)
let bytes t = locked t (fun () -> t.bytes)
let max_entries t = t.max_entries
let max_bytes t = t.max_bytes

let clear t =
  locked t (fun () ->
      t.counters.Codar.Stats.invalidations <-
        t.counters.Codar.Stats.invalidations + Hashtbl.length t.table;
      Hashtbl.reset t.table;
      Hashtbl.reset t.memo;
      t.memo_bytes <- 0;
      t.head <- None;
      t.tail <- None;
      t.bytes <- 0)

let counters t =
  locked t (fun () ->
      {
        Codar.Stats.hits = t.counters.Codar.Stats.hits;
        misses = t.counters.Codar.Stats.misses;
        insertions = t.counters.Codar.Stats.insertions;
        evictions = t.counters.Codar.Stats.evictions;
        invalidations = t.counters.Codar.Stats.invalidations;
        memo_hits = t.counters.Codar.Stats.memo_hits;
      })

let memo_length t = locked t (fun () -> Hashtbl.length t.memo)

(* ------------------------------------------------------------ persistence *)

let schema = "codar-cache/1"

let to_json t =
  locked t (fun () ->
      let entries = ref [] in
      (* walk LRU → MRU so the serialised list is MRU-first after the fold *)
      let rec go = function
        | None -> ()
        | Some n ->
          entries :=
            Report.Json.Obj
              [
                ("key", Report.Json.String n.key);
                ("record", Report.Record.to_json n.record);
              ]
            :: !entries;
          go n.prev
      in
      go t.tail;
      (* the prepending walk ran LRU → MRU, so [!entries] is already
         MRU-first — the order [of_json] expects *)
      Report.Json.Obj
        [
          ("schema", Report.Json.String schema);
          ("entries", Report.Json.List !entries);
        ])

(* Crash-safe save: serialise, checksum, write header + payload to a
   unique temp file in the target directory, fsync, atomically rename
   over the target, then best-effort fsync the directory. At no point is
   the target itself open for writing, so a crash — at any instruction,
   including the fault-injected stall between fsync and rename — leaves
   the target as either the complete old or the complete new snapshot.

   The header line is [codar-cache-sum/1 <fnv1a64-hex> <payload-bytes>];
   everything after the first newline is the JSON payload the checksum
   covers. Files written before this header existed (plain JSON) still
   load, without integrity protection. *)

let sum_magic = "codar-cache-sum/1"

let sys_error fmt = Fmt.kstr (fun msg -> raise (Sys_error msg)) fmt

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let n =
      try Unix.write_substring fd s !pos (len - !pos)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    pos := !pos + n
  done

let fsync_dir path =
  (* not all filesystems let you fsync a directory; losing the rename's
     durability (not its atomicity) on those is acceptable *)
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let save t path =
  let payload = Report.Json.to_string (to_json t) ^ "\n" in
  let header =
    Printf.sprintf "%s %s %d\n" sum_magic
      (Fingerprint.to_hex (Fingerprint.fnv1a64 payload))
      (String.length payload)
  in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    try Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, _, _) ->
      sys_error "%s: %s" tmp (Unix.error_message e)
  in
  let give_up msg =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Sys.remove tmp with Sys_error _ -> ());
    sys_error "%s: %s" tmp msg
  in
  (try
     (* the corrupt fault flips a payload byte *after* the checksum was
        computed: the file lands intact-looking but must fail to load *)
     let payload =
       if Faults.fire Faults.Cache_save_corrupt && String.length payload > 2
       then begin
         let b = Bytes.of_string payload in
         let i = String.length payload / 2 in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
         Bytes.to_string b
       end
       else payload
     in
     if Faults.fire Faults.Cache_save_disk_full then begin
       (* model ENOSPC: half the bytes land, then the write fails *)
       write_all fd header;
       write_all fd (String.sub payload 0 (String.length payload / 2));
       give_up "injected fault: no space left on device"
     end;
     write_all fd header;
     write_all fd payload;
     Unix.fsync fd
   with Unix.Unix_error (e, _, _) -> give_up (Unix.error_message e));
  (try Unix.close fd
   with Unix.Unix_error (e, _, _) ->
     (try Sys.remove tmp with Sys_error _ -> ());
     sys_error "%s: %s" tmp (Unix.error_message e));
  Faults.pause Faults.Cache_save_stall;
  (try Sys.rename tmp path
   with Sys_error msg ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise (Sys_error msg));
  fsync_dir (Filename.dirname path)

let ( let* ) = Result.bind

let of_json ?max_bytes ~max_entries j =
  let* () =
    match Report.Json.(member "schema" j) with
    | Some (Report.Json.String s) when s = schema -> Ok ()
    | Some (Report.Json.String s) ->
      Error (Fmt.str "unsupported cache schema %S (want %S)" s schema)
    | Some _ | None -> Error "missing cache schema"
  in
  let* entries =
    match Report.Json.member "entries" j with
    | Some l -> (
      match Report.Json.to_list_opt l with
      | Some l -> Ok l
      | None -> Error "cache entries is not a list")
    | None -> Error "missing cache entries"
  in
  let t = create ?max_bytes ~max_entries () in
  let* () =
    (* entries are MRU-first on disk; insert LRU-first so recency — and
       therefore future eviction order — survives the round-trip *)
    List.fold_left
      (fun acc e ->
        let* () = acc in
        let* key =
          match Report.Json.member "key" e with
          | Some (Report.Json.String k) -> Ok k
          | Some _ | None -> Error "cache entry without a string key"
        in
        let* record =
          match Report.Json.member "record" e with
          | Some r -> Report.Record.of_json r
          | None -> Error "cache entry without a record"
        in
        add t key record;
        Ok ())
      (Ok ()) (List.rev entries)
  in
  (* loading is not insertion traffic: counters start clean *)
  Codar.Stats.cache_reset t.counters;
  Ok t

type load_error =
  | Io of string
  | Corrupt of string
  | Malformed of string

let load_error_to_string = function
  | Io msg -> "cache file unreadable: " ^ msg
  | Corrupt msg -> "cache file corrupt (starting cold): " ^ msg
  | Malformed msg -> "cache file malformed (starting cold): " ^ msg

(* header = "codar-cache-sum/1 <16 hex> <decimal payload length>" *)
let parse_sum_header line =
  match String.split_on_char ' ' line with
  | [ magic; sum; len ] when magic = sum_magic -> (
    match int_of_string_opt len with
    | Some n when n >= 0 && String.length sum = 16 -> Some (sum, n)
    | Some _ | None -> None)
  | _ -> None

let load ?max_bytes ~max_entries path =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Io msg)
  | text ->
    let parse_payload payload =
      match Report.Json.parse payload with
      | Error msg -> Error (Malformed msg)
      | Ok j ->
        Result.map_error
          (fun msg -> Malformed msg)
          (of_json ?max_bytes ~max_entries j)
    in
    if
      String.length text >= String.length sum_magic
      && String.sub text 0 (String.length sum_magic) = sum_magic
    then begin
      match String.index_opt text '\n' with
      | None -> Error (Corrupt "checksum header without payload")
      | Some i -> (
        let header = String.sub text 0 i in
        let payload =
          String.sub text (i + 1) (String.length text - i - 1)
        in
        match parse_sum_header header with
        | None -> Error (Corrupt "malformed checksum header")
        | Some (sum, expected_len) ->
          if String.length payload <> expected_len then
            Error
              (Corrupt
                 (Fmt.str "truncated: %d of %d payload bytes"
                    (String.length payload) expected_len))
          else if Fingerprint.to_hex (Fingerprint.fnv1a64 payload) <> sum
          then Error (Corrupt "checksum mismatch")
          else parse_payload payload)
    end
    else
      (* pre-checksum files are plain JSON; accept them unchecked *)
      parse_payload text
