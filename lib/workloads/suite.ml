type entry = {
  name : string;
  family : string;
  n_qubits : int;
  circuit : Qc.Circuit.t Lazy.t;
}

let entry family name n_qubits thunk =
  { name; family; n_qubits; circuit = Lazy.from_fun thunk }

let qft n =
  entry "qft" (Fmt.str "qft_%d" n) n (fun () -> Builders.qft n)

let ghz n = entry "ghz" (Fmt.str "ghz_%d" n) n (fun () -> Builders.ghz n)

let bv n =
  (* alternating-bits secret, the classic worst case for the oracle *)
  let secret = 0b0101010101010101 land ((1 lsl (n - 1)) - 1) in
  entry "bv" (Fmt.str "bv_%d" n) n (fun () ->
      Builders.bernstein_vazirani ~n ~secret)

let dj n =
  entry "dj" (Fmt.str "dj_%d" n) n (fun () ->
      Builders.deutsch_jozsa ~n ~balanced:true)

let adder bits =
  let n = (2 * bits) + 2 in
  entry "adder" (Fmt.str "adder_%d" n) n (fun () ->
      Builders.cuccaro_adder ~bits)

let grover n marked iterations =
  let width = n + max 0 (n - 3) in
  let name =
    if iterations = 1 then Fmt.str "grover_%d" n
    else Fmt.str "grover_%dx%d" n iterations
  in
  entry "grover" name width (fun () -> Builders.grover ~n ~marked ~iterations)

let qaoa n layers =
  entry "qaoa" (Fmt.str "qaoa_%d" n) n (fun () ->
      Builders.qaoa_ring ~n ~layers)

let tof n reps =
  entry "tof" (Fmt.str "tof_%d" n) n (fun () ->
      Builders.toffoli_chain ~n ~reps)

let revlib n toffolis seed =
  entry "revlib" (Fmt.str "oracle_%d" n) n (fun () ->
      Builders.revlib_style ~n ~toffolis ~seed)

let wstate n =
  entry "wstate" (Fmt.str "wstate_%d" n) n (fun () -> Builders.w_state n)

let simon half =
  let n = 2 * half in
  entry "simon" (Fmt.str "simon_%d" n) n (fun () ->
      Builders.simon ~n:half ~secret:((1 lsl half) - 1))

let qpe counting =
  let n = counting + 1 in
  entry "qpe" (Fmt.str "qpe_%d" n) n (fun () ->
      Builders.phase_estimation ~counting ~phase:0.3125)

let rand name n gates seed =
  entry "random" name n (fun () ->
      Builders.random_circuit ~n ~gates ~two_qubit_fraction:0.45 ~seed)

let all =
  let entries =
    [
      (* QFT: 10 *)
      qft 3; qft 4; qft 5; qft 6; qft 7; qft 8; qft 10; qft 12; qft 14; qft 16;
      (* GHZ: 7 (one 36-qubit) *)
      ghz 3; ghz 5; ghz 8; ghz 12; ghz 14; ghz 16; ghz 36;
      (* Bernstein–Vazirani: 8 *)
      bv 4; bv 6; bv 8; bv 10; bv 12; bv 13; bv 15; bv 16;
      (* Deutsch–Jozsa: 5 *)
      dj 4; dj 6; dj 8; dj 10; dj 12;
      (* Cuccaro adders: 7 *)
      adder 1; adder 2; adder 3; adder 4; adder 5; adder 6; adder 7;
      (* Grover: 4 *)
      grover 3 2 3; grover 3 5 1; grover 3 5 2; grover 4 9 1;
      (* QAOA rings: 7 (one 36-qubit) *)
      qaoa 6 1; qaoa 8 1; qaoa 10 2; qaoa 12 2; qaoa 14 2; qaoa 16 2;
      qaoa 36 1;
      (* Toffoli chains: 6 *)
      tof 3 2; tof 4 2; tof 5 3; tof 6 3; tof 8 4; tof 10 4;
      (* RevLib-style oracles: 6 *)
      revlib 5 10 101; revlib 6 15 102; revlib 8 25 103; revlib 10 40 104;
      revlib 12 60 105; revlib 14 80 106;
      (* W states: 3 *)
      wstate 4; wstate 8; wstate 12;
      (* Simon: 3 *)
      simon 3; simon 4; simon 5;
      (* Phase estimation: 3 *)
      qpe 3; qpe 5; qpe 7;
      (* Random: 2 (one ~30 000 gates, one 36-qubit) *)
      rand "rand_16_30k" 16 30000 7;
      rand "rand_36" 36 1200 11;
    ]
  in
  List.stable_sort (fun a b -> Stdlib.compare a.n_qubits b.n_qubits) entries

(* Large-scale tier: circuits sized for the 100–400-qubit grid and
   heavy-hex devices, kept out of [all] so the paper's 71-benchmark
   envelope stays pinned. Stretches to ~100k gates; everything is lazy,
   so nothing here costs anything until a bench/fuzz run asks for it. *)
let large =
  let entries =
    [
      ghz 128;
      qft 64;
      bv 128;
      qaoa 100 12;
      rand "rand_100_20k" 100 20_000 21;
      rand "rand_128_100k" 128 100_000 23;
    ]
  in
  List.stable_sort (fun a b -> Stdlib.compare a.n_qubits b.n_qubits) entries

let find name = List.find_opt (fun e -> e.name = name) (all @ large)

let fitting ~max_qubits = List.filter (fun e -> e.n_qubits <= max_qubits) all
