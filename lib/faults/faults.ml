(* Seeded fault-injection registry. See the .mli for the contract; the
   implementation notes that matter:

   - The armed plan lives in one [Atomic.t]. A disarmed [fire] is a
     single [Atomic.get] returning [None] — no counter bump, no hash.
   - Each point keeps its own query counter ([Atomic.fetch_and_add]), so
     the k-th query of a point decides identically no matter which
     thread or domain asks. Cross-point interleaving does not matter;
     per-point ordering is what call sites (driven sequentially by the
     soak test) make deterministic.
   - Decisions hash (seed, point, k) through the SplitMix64 finalizer
     and compare 24 low bits against the rate — plenty of resolution
     for soak-style rates without float drift. *)

type point =
  | Frame_short_read
  | Frame_read_eof
  | Frame_stall
  | Frame_write_error
  | Pool_task_exn
  | Pool_latency
  | Cache_save_disk_full
  | Cache_save_corrupt
  | Cache_save_stall

exception Injected of string

let all_points =
  [
    Frame_short_read; Frame_read_eof; Frame_stall; Frame_write_error;
    Pool_task_exn; Pool_latency; Cache_save_disk_full; Cache_save_corrupt;
    Cache_save_stall;
  ]

let n_points = List.length all_points

let point_index = function
  | Frame_short_read -> 0
  | Frame_read_eof -> 1
  | Frame_stall -> 2
  | Frame_write_error -> 3
  | Pool_task_exn -> 4
  | Pool_latency -> 5
  | Cache_save_disk_full -> 6
  | Cache_save_corrupt -> 7
  | Cache_save_stall -> 8

let point_name = function
  | Frame_short_read -> "frame_short_read"
  | Frame_read_eof -> "frame_read_eof"
  | Frame_stall -> "frame_stall"
  | Frame_write_error -> "frame_write_error"
  | Pool_task_exn -> "pool_task_exn"
  | Pool_latency -> "pool_latency"
  | Cache_save_disk_full -> "cache_save_disk_full"
  | Cache_save_corrupt -> "cache_save_corrupt"
  | Cache_save_stall -> "cache_save_stall"

(* SplitMix64 finalizer (same constants as Fuzz.Gen.case_seed). *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let mix ~seed ~index =
  let open Int64 in
  let z =
    mix64 (add (of_int seed) (mul (of_int (index + 1)) 0x9E3779B97F4A7C15L))
  in
  to_int (logand z 0x3FFFFFFFFFFFFFFFL)

type plan = {
  seed : int;
  rates : int array; (* per point, scaled to [0, 2^24] *)
  delays_ms : int array;
  queries : int Atomic.t array;
  hits : int Atomic.t array;
}

let rate_scale = 1 lsl 24
let default_delay_ms = 2

let plan ?(delays_ms = []) ~seed rates =
  let r = Array.make n_points 0 in
  List.iter
    (fun (p, rate) ->
      if not (rate >= 0. && rate <= 1.) then
        invalid_arg (Fmt.str "Faults.plan: rate %g not in [0, 1]" rate);
      r.(point_index p) <- int_of_float (rate *. float_of_int rate_scale))
    rates;
  let d = Array.make n_points default_delay_ms in
  List.iter
    (fun (p, ms) ->
      if ms < 0 then invalid_arg (Fmt.str "Faults.plan: delay %d ms < 0" ms);
      d.(point_index p) <- ms)
    delays_ms;
  {
    seed;
    rates = r;
    delays_ms = d;
    queries = Array.init n_points (fun _ -> Atomic.make 0);
    hits = Array.init n_points (fun _ -> Atomic.make 0);
  }

let soak ~seed =
  plan ~seed
    ~delays_ms:[ (Frame_stall, 1); (Pool_latency, 1); (Cache_save_stall, 1) ]
    [
      (Frame_short_read, 0.10);
      (Frame_read_eof, 0.03);
      (Frame_stall, 0.05);
      (Frame_write_error, 0.05);
      (Pool_task_exn, 0.10);
      (Pool_latency, 0.05);
      (Cache_save_disk_full, 0.25);
      (Cache_save_corrupt, 0.25);
      (Cache_save_stall, 0.10);
    ]

let persist_crash ~seed =
  plan ~seed ~delays_ms:[ (Cache_save_stall, 3000) ] [ (Cache_save_stall, 1.0) ]

let current : plan option Atomic.t = Atomic.make None

let arm p =
  Array.iter (fun a -> Atomic.set a 0) p.queries;
  Array.iter (fun a -> Atomic.set a 0) p.hits;
  Atomic.set current (Some p)

let disarm () = Atomic.set current None
let armed () = Atomic.get current <> None

let with_plan p f =
  arm p;
  Fun.protect ~finally:disarm f

(* Decision for query [k] of point [idx] under [p]: hash the triple, keep
   24 bits, compare against the scaled rate. *)
let decide p idx k =
  let open Int64 in
  let z =
    mix64
      (add (of_int p.seed)
         (add
            (mul (of_int (idx + 1)) 0x9E3779B97F4A7C15L)
            (mul (of_int (k + 1)) 0xD1B54A32D192ED03L)))
  in
  to_int (logand z 0xFFFFFFL) < p.rates.(idx)

let fire point =
  match Atomic.get current with
  | None -> false
  | Some p ->
    let idx = point_index point in
    if p.rates.(idx) = 0 then false
    else begin
      let k = Atomic.fetch_and_add p.queries.(idx) 1 in
      let hit = decide p idx k in
      if hit then ignore (Atomic.fetch_and_add p.hits.(idx) 1);
      hit
    end

let pause point =
  if fire point then
    match Atomic.get current with
    | None -> ()
    | Some p ->
      let ms = p.delays_ms.(point_index point) in
      if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.)

let raise_if point msg =
  if fire point then raise (Injected (Fmt.str "injected fault: %s" msg))

let fired () =
  match Atomic.get current with
  | None -> []
  | Some p ->
    List.map
      (fun pt -> (point_name pt, Atomic.get p.hits.(point_index pt)))
      all_points

let total_fired () =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (fired ())
