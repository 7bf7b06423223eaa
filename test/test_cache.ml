(* The content-addressed cache: fingerprint canonicalisation, LRU
   mechanics, and persistence.

   The property that matters most is the QCheck one: a circuit and its
   print → parse image must fingerprint identically, because the daemon
   hashes the *parsed* request — if formatting could shift the
   fingerprint, equal workloads would fragment the cache and the
   byte-identical-replay guarantee would silently turn into a recompute.
   The converse (distinct options → distinct canonical bytes) is asserted
   on the encoding, not the 64-bit hash, so CI never flakes on a true
   hash collision. *)

module Fp = Cache.Fingerprint

let sc = Arch.Durations.superconducting
let tokyo = Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc

let fp ?collect_stats ?(router = "codar") ?(placement = "sabre")
    ?(restarts = 8) ?(seed = 0) ?(maqam = tokyo) circuit =
  Fp.compute ?collect_stats ~circuit ~maqam ~router ~placement ~restarts
    ~seed ()

(* ----------------------------------------------------------- test vectors *)

let test_fnv_vectors () =
  (* published FNV-1a/64 vectors — pins basis and prime forever *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Fmt.str "fnv1a64 %S" input)
        expected
        (Fp.to_hex (Fp.fnv1a64 input)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

let test_versioned_prefix () =
  let b =
    Fp.canonical_bytes ~circuit:(Qc.Circuit.make ~n_qubits:1 []) ~maqam:tokyo
      ~router:"codar" ~placement:"sabre" ~restarts:8 ~seed:0 ()
  in
  Alcotest.(check bool)
    "canonical bytes carry the codar-fp/2 version tag" true
    (String.length b >= 10 && String.sub b 0 10 = "codar-fp/2")

(* ------------------------------------------------------------ sensitivity *)

let test_sensitivity () =
  let c =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.h 0; Qc.Gate.rz 0.25 1; Qc.Gate.cx 0 2 ]
  in
  let base = fp c in
  let check name other =
    Alcotest.(check bool) (name ^ " changes the fingerprint") true
      (not (String.equal base other))
  in
  check "seed" (fp ~seed:1 c);
  check "restarts" (fp ~restarts:9 c);
  check "router" (fp ~router:"sabre" c);
  check "placement" (fp ~placement:"trivial" c);
  check "stats flag" (fp ~collect_stats:true c);
  check "device"
    (fp
       ~maqam:
         (Arch.Maqam.make ~coupling:Arch.Devices.ibm_q16_melbourne
            ~durations:sc)
       c);
  check "durations"
    (fp ~maqam:(Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
                  ~durations:Arch.Durations.uniform)
       c);
  (* a one-ULP angle nudge is a different circuit *)
  let c' =
    Qc.Circuit.make ~n_qubits:3
      [
        Qc.Gate.h 0;
        Qc.Gate.rz (Float.succ 0.25) 1;
        Qc.Gate.cx 0 2;
      ]
  in
  check "angle ULP" (fp c')

(* ------------------------------------------- canonicalisation property *)

(* local circuit generator (each test binary is standalone) covering every
   gate arity the printer emits: bare, one-angle, multi-angle, two-qubit *)
let circuit_gen =
  let open QCheck.Gen in
  let* n = int_range 2 8 in
  let q = int_range 0 (n - 1) in
  let angle = float_range (-7.) 7. in
  let gate =
    let* a = q in
    let* b = q in
    let b = if a = b then (a + 1) mod n else b in
    oneof
      [
        oneofl
          [ Qc.Gate.h a; Qc.Gate.x a; Qc.Gate.t a; Qc.Gate.sdg a ];
        map (fun th -> Qc.Gate.rz th a) angle;
        map (fun th -> Qc.Gate.u3 th 0.1 (-.th) a) angle;
        return (Qc.Gate.cx a b);
        return (Qc.Gate.swap a b);
        map (fun th -> Qc.Gate.rzz th a b) angle;
      ]
  in
  let* gates = list_size (int_range 0 25) gate in
  return (Qc.Circuit.make ~n_qubits:n gates)

let prop_fingerprint_canonical =
  QCheck.Test.make ~count:200
    ~name:"print |> parse preserves the fingerprint"
    (QCheck.make ~print:(Fmt.str "%a" Qc.Circuit.pp) circuit_gen)
    (fun c ->
      let c' = Qasm.Parser.parse (Qasm.Printer.to_string c) in
      String.equal (fp c) (fp c'))

let prop_distinct_circuits_distinct_bytes =
  (* injectivity of the encoding for gate-list differences *)
  QCheck.Test.make ~count:200
    ~name:"distinct circuits give distinct canonical bytes"
    (QCheck.make
       ~print:(fun (a, b) -> Fmt.str "%a / %a" Qc.Circuit.pp a Qc.Circuit.pp b)
       QCheck.Gen.(pair circuit_gen circuit_gen))
    (fun (a, b) ->
      let bytes c =
        Fp.canonical_bytes ~circuit:c ~maqam:tokyo ~router:"codar"
          ~placement:"sabre" ~restarts:8 ~seed:0 ()
      in
      QCheck.assume (not (Qc.Circuit.equal a b));
      not (String.equal (bytes a) (bytes b)))

(* ------------------------------------------------------------------- LRU *)

let record bench =
  let req =
    {
      Service.Protocol.source = `Bench bench;
      arch = "tokyo";
      durations = "sc";
      router = "codar";
      placement = "sabre";
      objective = None;
      metric = None;
      restarts = 2;
      seed = 0;
      collect_stats = false;
    }
  in
  match Service.Engine.spec_of_route_req req with
  | Error msg -> Alcotest.failf "spec: %s" msg
  | Ok spec -> fst (Service.Engine.route spec)

let r_qft4 = lazy (record "qft_4")

let counters_check t ~hits ~misses ~insertions ~evictions ~invalidations =
  let c = Cache.counters t in
  Alcotest.(check (list int))
    "counters [hits;misses;ins;evict;inval]"
    [ hits; misses; insertions; evictions; invalidations ]
    [
      c.Codar.Stats.hits; c.Codar.Stats.misses; c.Codar.Stats.insertions;
      c.Codar.Stats.evictions; c.Codar.Stats.invalidations;
    ]

let test_lru_eviction_order () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:2 () in
  Cache.add t "a" r;
  Cache.add t "b" r;
  (* touch "a": it becomes MRU, so "b" must be the eviction victim *)
  Alcotest.(check bool) "hit a" true (Cache.find t "a" <> None);
  Cache.add t "c" r;
  Alcotest.(check int) "capped at 2" 2 (Cache.length t);
  Alcotest.(check bool) "b evicted" true (Cache.find t "b" = None);
  Alcotest.(check bool) "a kept" true (Cache.find t "a" <> None);
  Alcotest.(check bool) "c kept" true (Cache.find t "c" <> None);
  counters_check t ~hits:3 ~misses:1 ~insertions:3 ~evictions:1
    ~invalidations:0

let test_replace_same_key () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:4 () in
  Cache.add t "k" r;
  Cache.add t "k" r;
  Alcotest.(check int) "replace keeps one entry" 1 (Cache.length t);
  counters_check t ~hits:0 ~misses:0 ~insertions:2 ~evictions:0
    ~invalidations:0

let test_byte_cap_keeps_oversized () =
  let r = Lazy.force r_qft4 in
  (* a byte cap smaller than one entry must keep the newest entry alone
     rather than thrash to empty *)
  let t = Cache.create ~max_bytes:8 ~max_entries:10 () in
  Cache.add t "big" r;
  Alcotest.(check int) "oversized entry survives alone" 1 (Cache.length t);
  Cache.add t "big2" r;
  Alcotest.(check int) "next oversized entry replaces it" 1 (Cache.length t);
  Alcotest.(check bool) "newest wins" true (Cache.find t "big2" <> None)

let test_clear_counts_invalidations () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:8 () in
  Cache.add t "a" r;
  Cache.add t "b" r;
  Cache.clear t;
  Alcotest.(check int) "empty after clear" 0 (Cache.length t);
  counters_check t ~hits:0 ~misses:0 ~insertions:2 ~evictions:0
    ~invalidations:2

(* ---------------------------------------------------------- request memo *)

let qft4_req =
  {
    Service.Protocol.source = `Bench "qft_4";
    arch = "tokyo";
    durations = "sc";
    router = "codar";
    placement = "sabre";
    objective = None;
    metric = None;
    restarts = 2;
    seed = 0;
    collect_stats = false;
  }

let qft4_qasm =
  lazy
    (Qasm.Printer.to_string
       (Lazy.force (Option.get (Workloads.Suite.find "qft_4")).circuit))

(* The daemon's lookup path in-process: a miss routes and inserts. *)
let lookup cache rr =
  Service.Ops.lookup_route ~m:(Mutex.create ()) ~cache:(fun () -> cache) rr
    ~miss:(fun fp spec ->
      let record = fst (Service.Engine.route spec) in
      Cache.add cache fp record;
      `Routed (fp, record))

let memo_hits t = (Cache.counters t).Codar.Stats.memo_hits

let test_memo_whitespace_variants () =
  let t = Cache.create ~max_entries:8 () in
  let text = Lazy.force qft4_qasm in
  let a = { qft4_req with source = `Qasm text } in
  let b = { qft4_req with source = `Qasm ("  \n" ^ text ^ "\n\n") } in
  let fp_of = function
    | `Routed (fp, _) | `Hit (fp, _) -> fp
    | `Bad msg -> Alcotest.failf "bad request: %s" msg
  in
  let fp = fp_of (lookup t a) in
  (* a cold miss admits nothing: only a hit proves the key worth keeping *)
  Alcotest.(check int) "no key after a miss" 0 (Cache.memo_length t);
  List.iter
    (fun rr ->
      match lookup t rr with
      | `Hit (fp', _) -> Alcotest.(check string) "same fingerprint" fp fp'
      | `Routed _ | `Bad _ -> Alcotest.fail "expected a hit")
    [ a; b; a; b ];
  Alcotest.(check int) "one cache entry" 1 (Cache.length t);
  Alcotest.(check int) "two memo keys" 2 (Cache.memo_length t);
  Alcotest.(check int) "memo hits counted" 2 (memo_hits t);
  counters_check t ~hits:4 ~misses:1 ~insertions:1 ~evictions:0
    ~invalidations:0;
  (* a text that does not parse is refused and never memoised *)
  (match lookup t { qft4_req with source = `Qasm "OPENQASM 2.0; bogus" } with
  | `Bad _ -> ()
  | `Hit _ | `Routed _ -> Alcotest.fail "garbage accepted");
  Alcotest.(check int) "no key for a parse failure" 2 (Cache.memo_length t)

(* Two request keys with one [Hashtbl.hash], found by a birthday search
   over seeds: the second must miss, never answer with the first's
   record. *)
let test_memo_hash_collision_misses () =
  let key seed = Service.Engine.request_key { qft4_req with seed } in
  let by_hash = Hashtbl.create 1024 in
  let rec search seed =
    let k = key seed in
    match Hashtbl.find_opt by_hash (Hashtbl.hash k) with
    | Some k' -> (k', k)
    | None ->
      Hashtbl.add by_hash (Hashtbl.hash k) k;
      search (seed + 1)
  in
  let k1, k2 = search 0 in
  Alcotest.(check bool) "distinct keys" false (String.equal k1 k2);
  Alcotest.(check int) "colliding hashes" (Hashtbl.hash k1) (Hashtbl.hash k2);
  let t = Cache.create ~max_entries:8 () in
  Cache.add t "fp1" (Lazy.force r_qft4);
  Cache.memoise t k1 ~fingerprint:"fp1";
  Alcotest.(check bool) "the memoised key hits" true
    (Option.is_some (Cache.find_memo t k1));
  Alcotest.(check bool) "the colliding key misses" true
    (Cache.find_memo t k2 = None);
  Alcotest.(check int) "only the real hit counted" 1 (memo_hits t);
  counters_check t ~hits:1 ~misses:0 ~insertions:1 ~evictions:0
    ~invalidations:0

let test_memo_keys_go_with_record () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:1 () in
  Cache.add t "fp1" r;
  let bytes0 = Cache.bytes t in
  Cache.memoise t "k1" ~fingerprint:"fp1";
  Alcotest.(check int) "a key counts toward the record's size"
    (bytes0 + String.length "k1") (Cache.bytes t);
  Cache.memoise t "k0" ~fingerprint:"absent";
  Alcotest.(check int) "no key for an absent record" 1 (Cache.memo_length t);
  (* eviction takes the keys: the request falls back to a fingerprint
     lookup, which counts the one miss *)
  Cache.add t "fp2" r;
  Alcotest.(check int) "evicted with its record" 0 (Cache.memo_length t);
  Alcotest.(check bool) "memo misses" true (Cache.find_memo t "k1" = None);
  Alcotest.(check bool) "fingerprint misses" true (Cache.find t "fp1" = None);
  counters_check t ~hits:0 ~misses:1 ~insertions:2 ~evictions:1
    ~invalidations:0;
  (* a record keeps its newest few keys *)
  for i = 1 to Cache.memo_per_record + 2 do
    Cache.memoise t (Printf.sprintf "key%d" i) ~fingerprint:"fp2"
  done;
  Alcotest.(check int) "capped per record" Cache.memo_per_record
    (Cache.memo_length t);
  Alcotest.(check bool) "oldest key dropped" true
    (Cache.find_memo t "key1" = None);
  Alcotest.(check bool) "newest key kept" true
    (Cache.find_memo t (Printf.sprintf "key%d" (Cache.memo_per_record + 2))
    <> None);
  (* replacement and clear take them too *)
  Cache.add t "fp2" r;
  Alcotest.(check int) "replaced with its record" 0 (Cache.memo_length t);
  Alcotest.(check int) "bytes back to the bare record" bytes0 (Cache.bytes t);
  Cache.memoise t "k2" ~fingerprint:"fp2";
  Cache.clear t;
  Alcotest.(check int) "cleared" 0 (Cache.memo_length t);
  Alcotest.(check int) "no bytes left" 0 (Cache.bytes t)

(* All keys together stay under a fixed budget, caps or not: a request
   frame may be megabytes of padding around a small circuit. *)
let test_memo_budget () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:2 () in
  Cache.add t "fp1" r;
  Cache.add t "fp2" r;
  let big = String.make (Cache.memo_max_bytes - 10) 'k' in
  Cache.memoise t big ~fingerprint:"fp1";
  Cache.memoise t (String.make 20 'x') ~fingerprint:"fp2";
  Alcotest.(check int) "the key past the budget is refused" 1
    (Cache.memo_length t);
  Alcotest.(check bool) "the big key hits" true (Cache.find_memo t big <> None);
  (* its record goes, and its bytes with it *)
  Cache.add t "fp3" r;
  Cache.add t "fp4" r;
  Cache.memoise t (String.make 20 'x') ~fingerprint:"fp4";
  Alcotest.(check int) "budget freed with the record" 1 (Cache.memo_length t);
  Cache.memoise t (String.make (Cache.memo_max_bytes + 1) 'y')
    ~fingerprint:"fp3";
  Alcotest.(check int) "a key longer than the budget never enters" 1
    (Cache.memo_length t)

(* With a byte cap, memo keys are bounded like records: keying the MRU
   record evicts from the LRU end, never the record being keyed. *)
let test_memo_byte_cap () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:8 () in
  Cache.add t "fp1" r;
  let one = Cache.bytes t in
  let t = Cache.create ~max_bytes:((2 * one) + 10) ~max_entries:8 () in
  Cache.add t "fp1" r;
  Cache.add t "fp2" r;
  Cache.memoise t (String.make 20 'k') ~fingerprint:"fp2";
  Alcotest.(check bool) "LRU record evicted for the key" true
    (Cache.find t "fp1" = None);
  Alcotest.(check bool) "keyed record kept" true
    (Cache.find_memo t (String.make 20 'k') <> None)

(* ----------------------------------------------------------- persistence *)

let test_persistence_round_trip () =
  let r = Lazy.force r_qft4 in
  let r8 = record "ghz_8" in
  let t = Cache.create ~max_entries:8 () in
  Cache.add t "one" r;
  Cache.add t "two" r8;
  ignore (Cache.find t "one");
  (* "one" is now MRU *)
  let path = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Cache.save t path;
      match Cache.load ~max_entries:8 path with
      | Error e -> Alcotest.failf "load: %s" (Cache.load_error_to_string e)
      | Ok t' ->
        Alcotest.(check int) "entries survive" 2 (Cache.length t');
        counters_check t' ~hits:0 ~misses:0 ~insertions:0 ~evictions:0
          ~invalidations:0;
        (* byte-identical replay straight out of the loaded cache *)
        let ser x =
          Report.Json.to_string ~indent:0 (Report.Record.to_json x)
        in
        (match Cache.find t' "two" with
        | None -> Alcotest.fail "entry \"two\" lost"
        | Some got ->
          Alcotest.(check string) "record bytes survive disk" (ser r8)
            (ser got)));
  (* recency survives: reload into a 1-entry cache and only the MRU fits *)
  let path2 = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
    (fun () ->
      Cache.save t path2;
      match Cache.load ~max_entries:1 path2 with
      | Error e ->
        Alcotest.failf "truncating load: %s" (Cache.load_error_to_string e)
      | Ok small ->
        Alcotest.(check int) "truncated to cap" 1 (Cache.length small);
        Alcotest.(check bool)
          "the MRU entry is the one kept" true
          (Cache.find small "one" <> None))

(* crash-safe persistence: the checksum header and the typed cold-start
   paths for every way the file can be damaged *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_saved_cache f =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:4 () in
  Cache.add t "k" r;
  let path = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Cache.save t path;
      f path)

let test_save_writes_checksum_header () =
  with_saved_cache (fun path ->
      let contents = read_file path in
      Alcotest.(check bool)
        "file starts with the checksum magic" true
        (String.length contents > 18
        && String.sub contents 0 17 = "codar-cache-sum/1");
      (* no temp file left behind by the atomic rename *)
      let dir = Filename.dirname path in
      let leftovers =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > String.length (Filename.basename path)
               && String.sub f 0 (String.length (Filename.basename path))
                  = Filename.basename path)
      in
      Alcotest.(check (list string)) "no .tmp leftovers" [] leftovers)

let expect_corrupt name path =
  match Cache.load ~max_entries:4 path with
  | Error (Cache.Corrupt _) -> ()
  | Error e ->
    Alcotest.failf "%s: expected Corrupt, got %s" name
      (Cache.load_error_to_string e)
  | Ok _ -> Alcotest.failf "%s: damaged file must not load" name

let test_load_detects_byte_flip () =
  with_saved_cache (fun path ->
      let contents = read_file path in
      (* flip one payload byte, past the header line *)
      let header_end = String.index contents '\n' + 1 in
      let i = header_end + ((String.length contents - header_end) / 2) in
      let b = Bytes.of_string contents in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      write_file path (Bytes.to_string b);
      expect_corrupt "byte flip" path)

let test_load_detects_truncation () =
  with_saved_cache (fun path ->
      let contents = read_file path in
      write_file path (String.sub contents 0 (String.length contents - 10));
      expect_corrupt "truncation" path)

let test_load_accepts_legacy_plain_json () =
  (* pre-checksum snapshots have no header; they must still load *)
  with_saved_cache (fun path ->
      let contents = read_file path in
      let header_end = String.index contents '\n' + 1 in
      let payload =
        String.sub contents header_end (String.length contents - header_end)
      in
      write_file path payload;
      match Cache.load ~max_entries:4 path with
      | Error e ->
        Alcotest.failf "legacy load: %s" (Cache.load_error_to_string e)
      | Ok t -> Alcotest.(check int) "legacy entries survive" 1 (Cache.length t))

let test_load_rejects_empty_file () =
  let path = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_file path "";
      match Cache.load ~max_entries:4 path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "empty file must not load")

let test_load_rejects_garbage () =
  let path = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\":\"wrong/9\",\"entries\":[]}";
      close_out oc;
      match Cache.load ~max_entries:4 path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "wrong schema must not load");
  match Cache.load ~max_entries:4 "/nonexistent/cache.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must not load"

(* ------------------------------------------- fingerprint version bump *)

let test_prebump_snapshot_loads_cold () =
  (* a genuine pre-PR8 (codar-fp/1) cache snapshot: it must load as a
     typed success — old persistence files never crash a daemon — but its
     v1 fingerprint keys must never satisfy a v2 lookup, so the bump
     invalidates cleanly (a recompute, not a stale hit) *)
  let fixture =
    (* runtest executes in the test dir; `dune exec` from the root *)
    List.find_opt Sys.file_exists
      [ "prebump_cache_v1.json"; "test/prebump_cache_v1.json" ]
    |> Option.value ~default:"prebump_cache_v1.json"
  in
  match Cache.load ~max_entries:4 fixture with
  | Error e ->
    Alcotest.failf "pre-bump snapshot must load: %s"
      (Cache.load_error_to_string e)
  | Ok t ->
    Alcotest.(check int) "pre-bump entry survives the load" 1 (Cache.length t);
    (* the snapshot's key is the v1 fingerprint of exactly this request *)
    let v1_key = "09ee161db5252103" in
    (match Cache.find t v1_key with
    | Some r ->
      Alcotest.(check string) "stored record parses typed" "qft_4"
        r.Report.Record.source;
      Alcotest.(check string) "pre-PR8 objective defaults to makespan"
        "makespan" r.Report.Record.objective
    | None -> Alcotest.fail "v1 key lost by the loader");
    let circuit =
      match Workloads.Suite.find "qft_4" with
      | Some e -> Lazy.force e.Workloads.Suite.circuit
      | None -> Alcotest.fail "qft_4 missing from the suite"
    in
    let v2_key =
      Fp.compute ~circuit ~maqam:tokyo ~router:"codar" ~placement:"sabre-1"
        ~restarts:8 ~seed:0 ()
    in
    Alcotest.(check bool) "v2 fingerprint differs from the v1 key" true
      (not (String.equal v1_key v2_key));
    Alcotest.(check bool) "same request misses after the bump" true
      (Cache.find t v2_key = None)

let () =
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "FNV-1a vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "versioned prefix" `Quick test_versioned_prefix;
          Alcotest.test_case "option sensitivity" `Quick test_sensitivity;
          QCheck_alcotest.to_alcotest prop_fingerprint_canonical;
          QCheck_alcotest.to_alcotest prop_distinct_circuits_distinct_bytes;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace same key" `Quick test_replace_same_key;
          Alcotest.test_case "oversized entry kept" `Quick
            test_byte_cap_keeps_oversized;
          Alcotest.test_case "clear invalidates" `Quick
            test_clear_counts_invalidations;
        ] );
      ( "memo",
        [
          Alcotest.test_case "whitespace variants" `Quick
            test_memo_whitespace_variants;
          Alcotest.test_case "hash collision misses" `Quick
            test_memo_hash_collision_misses;
          Alcotest.test_case "keys go with their record" `Quick
            test_memo_keys_go_with_record;
          Alcotest.test_case "byte cap bounds keys" `Quick test_memo_byte_cap;
          Alcotest.test_case "memo byte budget" `Quick test_memo_budget;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "round trip" `Quick test_persistence_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_load_rejects_garbage;
          Alcotest.test_case "checksum header" `Quick
            test_save_writes_checksum_header;
          Alcotest.test_case "detects byte flip" `Quick
            test_load_detects_byte_flip;
          Alcotest.test_case "detects truncation" `Quick
            test_load_detects_truncation;
          Alcotest.test_case "legacy plain JSON loads" `Quick
            test_load_accepts_legacy_plain_json;
          Alcotest.test_case "rejects empty file" `Quick
            test_load_rejects_empty_file;
          Alcotest.test_case "pre-bump snapshot loads cold" `Quick
            test_prebump_snapshot_loads_cold;
        ] );
    ]
