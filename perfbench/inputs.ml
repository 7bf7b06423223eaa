(* Seeded request lists. The benchmark generates every input here and
   hands it to the program as OpenQASM text; the same seed gives the same
   lists. *)

type req = {
  name : string;  (** circuit name, for diagnostics *)
  arch : string;
  durations : string;
  placement : string;
  text : string;  (** OpenQASM 2.0 source *)
}

let qasm c = Qasm.Printer.to_string c

let suite_circuit name =
  match Workloads.Suite.find name with
  | Some e -> Lazy.force e.Workloads.Suite.circuit
  | None -> invalid_arg ("unknown suite circuit " ^ name)

let rng ~seed tag = Random.State.make [| seed; tag |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let random_circuit ~n ~gates ~seed =
  Workloads.Builders.random_circuit ~n ~gates ~two_qubit_fraction:0.45 ~seed

(* The Fig. 8 protocol: all 71 suite circuits on Sycamore-54 and the 68
   of at most 16 qubits on Melbourne, Enfield 6x6 and Tokyo, at the
   request defaults, in suite order. The order is fixed: a small route
   that follows a 30k-gate one pays off its garbage-collection debt, so a
   seeded order moved the median request latency by a third between
   seeds. [short] keeps the circuits of at most 6 qubits on Tokyo and
   Sycamore. *)
let paper_batch ~short =
  let on arch (e : Workloads.Suite.entry) =
    {
      name = e.name;
      arch;
      durations = "sc";
      placement = "sabre";
      text = qasm (Lazy.force e.circuit);
    }
  in
  let small = Workloads.Suite.fitting ~max_qubits:16 in
  let reqs =
    if short then
      let tiny = Workloads.Suite.fitting ~max_qubits:6 in
      List.map (on "tokyo") tiny @ List.map (on "sycamore") tiny
    else
      List.map (on "sycamore") Workloads.Suite.all
      @ List.concat_map
          (fun arch -> List.map (on arch) small)
          [ "melbourne"; "6x6"; "tokyo" ]
  in
  Array.of_list reqs

(* Large devices, trivial placement: the suite's 100-qubit, 20k-gate
   random circuit (rand_100_20k) on three devices plus the fixed
   large-tier circuits, in a fixed order. The seed changes nothing here:
   two random circuits of that size differ by up to 25% in routing time,
   which would swamp what a change does, and a route's time also depends
   on the heap earlier routes leave behind. qft_64 is in the list
   although it does not parse today (README.md). [short] routes a
   2000-gate random circuit, ghz_128 and one qft_64. *)
let large_route ~short =
  let fixed name = qasm (suite_circuit name) in
  let mk name arch text =
    { name; arch; durations = "sc"; placement = "trivial"; text }
  in
  let reqs =
    if short then
      [
        mk "rand_100_2000" "grid-10x10"
          (qasm (random_circuit ~n:100 ~gates:2000 ~seed:21));
        mk "ghz_128" "heavy-hex-9" (fixed "ghz_128");
        mk "qft_64" "grid-12x12" (fixed "qft_64");
      ]
    else
      let rand = fixed "rand_100_20k" in
      [
        mk "rand_100_20k" "grid-10x10" rand;
        mk "rand_100_20k" "heavy-hex-7" rand;
        mk "rand_100_20k" "heavy-hex-13" rand;
        mk "ghz_128" "heavy-hex-9" (fixed "ghz_128");
        mk "bv_128" "heavy-hex-9" (fixed "bv_128");
        mk "bv_128" "grid-12x12" (fixed "bv_128");
        mk "qaoa_100" "heavy-hex-13" (fixed "qaoa_100");
        mk "qaoa_100" "grid-10x10" (fixed "qaoa_100");
        mk "qft_64" "grid-12x12" (fixed "qft_64");
        mk "qft_64" "heavy-hex-7" (fixed "qft_64");
      ]
  in
  Array.of_list reqs

(* The daemon's warm set: the 67 suite circuits of at most 16 qubits
   other than rand_16_30k, on Tokyo at the request defaults. *)
let warm_set () =
  Workloads.Suite.fitting ~max_qubits:16
  |> List.filter (fun (e : Workloads.Suite.entry) -> e.name <> "rand_16_30k")
  |> List.map (fun (e : Workloads.Suite.entry) ->
         {
           name = e.name;
           arch = "tokyo";
           durations = "sc";
           placement = "sabre";
           text = qasm (Lazy.force e.circuit);
         })
  |> Array.of_list

type kind = Warm of int  (** an index into the warm set *) | Cold of req

let is_cold = function Cold _ -> true | Warm _ -> false

(* [colds] cold requests and seven warm ones per cold, dealt in a seeded
   order. A cold is a fresh random circuit of 8-16 qubits and 100-400
   gates on one of the four evaluation devices with the sc, ion or atom
   durations. The shapes (width, gates, device, profile) are a balanced
   design dealt to the colds in a seeded order, so every seed asks for the
   same amount of work and only the circuits themselves differ. Likewise
   every warm circuit is asked for equally often (to within one), in a
   seeded order: a warm request's latency grows with its circuit, so a
   random draw moved the warm median with the mix. *)
let daemon_mixed ~seed ~colds ~n_warm =
  let st = rng ~seed 3 in
  let cold = shuffle st (Array.init (8 * colds) (fun i -> i < colds)) in
  let devices = [| "melbourne"; "tokyo"; "6x6"; "sycamore" |] in
  let profiles = [| "sc"; "ion"; "atom" |] in
  let shapes =
    shuffle st
      (Array.init colds (fun k ->
           ( 8 + (k mod 9),
             100 + (k * 97 mod 301),
             devices.(k / 9 mod 4),
             profiles.(k / 36 mod 3) )))
  in
  let warms = shuffle st (Array.init (7 * colds) (fun j -> j mod n_warm)) in
  let next = ref 0 and next_warm = ref 0 in
  Array.mapi
    (fun i cold ->
      if not cold then begin
        let k = warms.(!next_warm) in
        incr next_warm;
        Warm k
      end
      else begin
        let n, gates, arch, durations = shapes.(!next) in
        incr next;
        let c = random_circuit ~n ~gates ~seed:(Hashtbl.hash (seed, i)) in
        Cold
          {
            name = Printf.sprintf "cold_%d" i;
            arch;
            durations;
            placement = "sabre";
            text = qasm c;
          }
      end)
    cold

(* The daemon frame for a request; keys at their defaults are omitted. *)
let frame r =
  let open Report.Json in
  let opt k v d = if v = d then [] else [ (k, String v) ] in
  to_string ~indent:0
    (Obj
       ([ ("op", String "route"); ("qasm", String r.text); ("arch", String r.arch) ]
       @ opt "durations" r.durations Service.Protocol.default_durations
       @ opt "placement" r.placement Service.Protocol.default_placement))
