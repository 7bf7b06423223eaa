(* The Printf-based canonical request encoding, kept verbatim as a
   test-only reference. test_cache.ml asserts that
   Cache.Fingerprint.canonical_bytes writes the same bytes, so snapshots
   written before the rewrite still hit. Do not modernise this file — its
   value is that it does not change. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let to_hex h = Printf.sprintf "%016Lx" h

(* canonical encoding --------------------------------------------------- *)

let add_float b f =
  (* bit-exact: distinguishes -0. from 0. and every NaN payload; immune to
     printf rounding *)
  Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float f))

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_string b s =
  (* length-prefixed so adjacent strings can never re-associate *)
  add_int b (String.length s);
  Buffer.add_string b s

let add_gate b (g : Qc.Gate.t) =
  let one_qubit_kind b (k : Qc.Gate.one_qubit) =
    match k with
    | I -> Buffer.add_string b "i"
    | X -> Buffer.add_string b "x"
    | Y -> Buffer.add_string b "y"
    | Z -> Buffer.add_string b "z"
    | H -> Buffer.add_string b "h"
    | S -> Buffer.add_string b "s"
    | Sdg -> Buffer.add_string b "sdg"
    | T -> Buffer.add_string b "t"
    | Tdg -> Buffer.add_string b "tdg"
    | Rx a ->
      Buffer.add_string b "rx";
      add_float b a
    | Ry a ->
      Buffer.add_string b "ry";
      add_float b a
    | Rz a ->
      Buffer.add_string b "rz";
      add_float b a
    | U1 a ->
      Buffer.add_string b "u1";
      add_float b a
    | U2 (a, c) ->
      Buffer.add_string b "u2";
      add_float b a;
      add_float b c
    | U3 (a, c, d) ->
      Buffer.add_string b "u3";
      add_float b a;
      add_float b c;
      add_float b d
  in
  let two_qubit_kind b (k : Qc.Gate.two_qubit) =
    match k with
    | CX -> Buffer.add_string b "cx"
    | CZ -> Buffer.add_string b "cz"
    | Swap -> Buffer.add_string b "swap"
    | XX a ->
      Buffer.add_string b "xx";
      add_float b a
    | Rzz a ->
      Buffer.add_string b "rzz";
      add_float b a
  in
  (match g with
  | Qc.Gate.One (k, q) ->
    Buffer.add_char b '1';
    one_qubit_kind b k;
    add_int b q
  | Qc.Gate.Two (k, q1, q2) ->
    Buffer.add_char b '2';
    two_qubit_kind b k;
    add_int b q1;
    add_int b q2
  | Qc.Gate.Barrier qs ->
    Buffer.add_char b 'b';
    add_int b (List.length qs);
    List.iter (add_int b) qs
  | Qc.Gate.Measure (q, c) ->
    Buffer.add_char b 'm';
    add_int b q;
    add_int b c);
  Buffer.add_char b '|'

let add_circuit b circuit =
  add_int b (Qc.Circuit.n_qubits circuit);
  add_int b (Qc.Circuit.length circuit);
  List.iter (add_gate b) (Qc.Circuit.gates circuit)

let add_coupling b coupling =
  add_string b (Arch.Coupling.name coupling);
  add_int b (Arch.Coupling.n_qubits coupling);
  List.iter
    (fun (u, v) ->
      add_int b u;
      add_int b v)
    (Arch.Coupling.edges coupling)

let add_durations b durations =
  add_string b (Arch.Durations.name durations);
  add_int b (Arch.Durations.one_qubit durations);
  add_int b (Arch.Durations.two_qubit durations);
  add_int b (Arch.Durations.swap durations);
  add_int b (Arch.Durations.measure durations)

(* Version 2 (PR 8): the routing objective and portfolio selection metric
   joined the option block, so the header bumped from codar-fp/1. Every v1
   key is thereby invalidated wholesale — a v1 entry can never alias a v2
   request, even one with the default makespan objective. *)
let canonical_bytes ?(collect_stats = false) ?(objective = "makespan")
    ?(metric = "makespan") ~circuit ~maqam ~router ~placement ~restarts ~seed
    () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "codar-fp/2\n";
  add_circuit b circuit;
  Buffer.add_char b '\n';
  add_coupling b (Arch.Maqam.coupling maqam);
  Buffer.add_char b '\n';
  add_durations b (Arch.Maqam.durations maqam);
  Buffer.add_char b '\n';
  add_string b router;
  add_string b placement;
  add_string b objective;
  add_string b metric;
  add_int b restarts;
  add_int b seed;
  (* instrumentation changes the record's bytes, so it is part of identity *)
  add_int b (if collect_stats then 1 else 0);
  Buffer.contents b

