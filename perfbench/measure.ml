(* Clocks, counters and summaries shared by every workload. *)

(* Wall time: CLOCK_MONOTONIC in nanoseconds, as the traced spans use. *)
let now_ns () = Monotonic_clock.now ()

let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* user + sys CPU seconds of this process *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated by this domain so far, minor + major - promoted. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host speed. The reference box is a shared 2-vCPU VM whose speed drifts
   by up to 1.7x in phases lasting seconds to minutes. Each batch run
   times a fixed reference kernel (dependent loads and stores over a
   512 KB array; no program code, and no allocation, so the program's
   heap cannot slow it) at many points and reports its time metrics
   scaled by [nominal_kernel_s / median kernel time]: a host phase that
   slows everything cancels out, while a change to the program does not.
   Rows print the scales beside the metrics. daemon-mixed uses
   [alloc_kernel] below instead. *)
let nominal_kernel_s = 0.0025

let kernel_buf = Array.make 65536 0

let kernel () =
  let a = kernel_buf in
  let acc = ref 0 in
  for i = 0 to 149_999 do
    let j = ((i * 7919) + !acc) land 65535 in
    a.(j) <- a.(j) + i;
    acc := (!acc lxor a.(j)) land 0xffff
  done;
  ignore (Sys.opaque_identity !acc)

(* (CPU seconds, wall seconds) of each kernel run *)
let kernel_samples = ref []

let sample_speed () =
  let c0 = cpu_s () and t0 = now_ns () in
  kernel ();
  kernel_samples := (cpu_s () -. c0, secs_since t0) :: !kernel_samples

(* Multiply a time by this (divide a rate) to express it at the nominal
   host speed: CPU-time metrics by [cpu], wall-time metrics by [wall],
   which also takes in the time the host did not run this VM. *)
type scale = { cpu : float; wall : float }

let host_scale () =
  match !kernel_samples with
  | [] -> { cpu = 1.; wall = 1. }
  | l ->
    {
      cpu = nominal_kernel_s /. median (List.map fst l);
      wall = nominal_kernel_s /. median (List.map snd l);
    }

(* The daemon's reference kernel. The host's slow phases hurt
   allocation-heavy OCaml code, which the daemon runs, more than the
   load-and-store loop above: in two runs of alternating samples on the
   reference box (60 s and 45 s), an in-process route's time followed
   this kernel's with correlations of 0.81 and 0.94 (windows of ~1 s) and
   moved as much, while [kernel]'s correlated 0.53 and 0.85. It builds
   and folds short lists whose cells die young, so it runs in the minor
   heap; and it runs in the benchmark process, never in the daemon, so no
   change to the program speeds or slows it. The batch workloads keep
   [kernel]: over eight paper-batch runs scaled both ways, this kernel's
   whole-run scale left their time metrics two to three times as spread
   as [kernel]'s. *)
let nominal_alloc_kernel_s = 0.008

let alloc_kernel () =
  let rec build n acc =
    if n = 0 then acc else build (n - 1) ((n, string_of_int n) :: acc)
  in
  let total = ref 0 in
  for _ = 1 to 24 do
    let l = List.map (fun (a, s) -> (a * 3, s ^ "x")) (build 2000 []) in
    total := List.fold_left (fun acc (a, s) -> acc + a + String.length s) !total l
  done;
  ignore (Sys.opaque_identity !total)

(* (CPU seconds, wall seconds) of one [alloc_kernel] run *)
let time_alloc_kernel () =
  let c0 = cpu_s () and t0 = now_ns () in
  alloc_kernel ();
  (cpu_s () -. c0, secs_since t0)

(* The scale of a stretch of work between two [time_alloc_kernel]
   samples: their geometric mean against the nominal. *)
let alloc_scale (c0, w0) (c1, w1) =
  {
    cpu = nominal_alloc_kernel_s /. sqrt (c0 *. c1);
    wall = nominal_alloc_kernel_s /. sqrt (w0 *. w1);
  }

(* The median of many scales, printed beside a row. *)
let median_scale l =
  {
    cpu = median (List.map (fun s -> s.cpu) l);
    wall = median (List.map (fun s -> s.wall) l);
  }

(* Read a whole file in chunks: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let k = input ic chunk 0 4096 in
        if k > 0 then begin
          Buffer.add_subbytes b chunk 0 k;
          go ()
        end
      in
      go ();
      Buffer.contents b)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* user + sys CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in USER_HZ = 100 ticks per second). The command
   name in field 2 may hold spaces, so split after its closing paren. *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 *)
  float_of_string fields.(11) +. float_of_string fields.(12) |> fun ticks ->
  ticks /. 100.

(* Nearest-rank percentile over samples where a failure is [infinity]:
   the value and the number of samples that lie beyond it. *)
let percentile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    (a.(rank - 1), n - rank)

let geomean = function
  | [] -> nan
  | l ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. l
      /. float_of_int (List.length l))

(* One reported number. [samples] and [beyond] are set on percentiles. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : (int * int) option;
}

let metric ?samples name unit_ value = { name; value; unit_; samples }

let pct name samples p =
  let v, beyond = percentile samples p in
  metric ~samples:(Array.length samples, beyond) name "ms" v

let pp_metric ppf m =
  match m.samples with
  | None -> Fmt.pf ppf "%s=%.6g %s" m.name m.value m.unit_
  | Some (n, beyond) ->
    Fmt.pf ppf "%s=%.6g %s (n=%d, %d beyond)" m.name m.value m.unit_ n beyond

(* One row per workload: every metric by name, value and unit. *)
let row ~workload ~label metrics =
  Fmt.str "%s %s: %a" label workload
    Fmt.(list ~sep:(any "; ") pp_metric)
    metrics

let print_row ~workload ~label metrics =
  print_endline (row ~workload ~label metrics)

(* A float with all its digits, as the result line needs it. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name
              (json_float m.value) m.unit_)
          metrics))
