(* Content-addressed identity of a routing request.

   The key has to be stable across *textual* variation (the same circuit
   parsed from differently-formatted QASM must hash identically) while
   remaining exact across *semantic* variation (any gate, angle bit, edge,
   duration or option change must change the key). So the hash runs over a
   canonical byte encoding of the parsed request, never over source text:
   gates in program order with angle floats encoded by their IEEE-754 bit
   pattern, the device as name + size + normalised edge list (Coupling
   already sorts and dedups), the duration table by its four integers, and
   the routing options that select the algorithm. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* a loop over a local [Int64] ref: the compiler keeps [h] unboxed *)
let fnv1a64_sub s len =
  let h = ref fnv_offset in
  for i = 0 to len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get s i)));
    h := Int64.mul !h fnv_prime
  done;
  !h

let fnv1a64 s = fnv1a64_sub (Bytes.unsafe_of_string s) (String.length s)

let hex_digits = "0123456789abcdef"

(* the 16 lower-case hex digits of [h], zero-padded, at [bytes.[off]] *)
let put_hex16 bytes off h =
  for i = 0 to 15 do
    Bytes.unsafe_set bytes (off + i)
      hex_digits.[Int64.to_int (Int64.shift_right_logical h (60 - (4 * i)))
                  land 15]
  done

let to_hex h =
  let b = Bytes.create 16 in
  put_hex16 b 0 h;
  Bytes.unsafe_to_string b

(* canonical encoding --------------------------------------------------- *)

(* The encoding is written straight into a growable byte buffer: ints as
   decimal digits, angles as 16 hex digits of their bits. *)
type buf = { mutable bytes : Bytes.t; mutable len : int }

let reserve b k =
  if b.len + k > Bytes.length b.bytes then begin
    let bytes = Bytes.create (max (b.len + k) (2 * Bytes.length b.bytes)) in
    Bytes.blit b.bytes 0 bytes 0 b.len;
    b.bytes <- bytes
  end

let add_char b c =
  reserve b 1;
  Bytes.unsafe_set b.bytes b.len c;
  b.len <- b.len + 1

let add_raw b s =
  let k = String.length s in
  reserve b k;
  Bytes.blit_string s 0 b.bytes b.len k;
  b.len <- b.len + k

let add_float b f =
  (* bit-exact: distinguishes -0. from 0. and every NaN payload; immune to
     printf rounding *)
  reserve b 16;
  put_hex16 b.bytes b.len (Int64.bits_of_float f);
  b.len <- b.len + 16

(* Decimal digits of [m <= 0]'s magnitude, taken from the negative side so
   that [min_int] needs no special case: how many, and written so the last
   lands at [k]. *)
let rec digit_count m acc =
  if m > -10 then acc else digit_count (m / 10) (acc + 1)

let rec put_digits bytes m k =
  Bytes.unsafe_set bytes k (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits bytes (m / 10) (k - 1)

(* [string_of_int i] then ';' *)
let add_int b i =
  let m = if i < 0 then i else -i in
  let w = (if i < 0 then 1 else 0) + digit_count m 1 in
  reserve b (w + 1);
  if i < 0 then Bytes.unsafe_set b.bytes b.len '-';
  put_digits b.bytes m (b.len + w - 1);
  Bytes.unsafe_set b.bytes (b.len + w) ';';
  b.len <- b.len + w + 1

let add_string b s =
  (* length-prefixed so adjacent strings can never re-associate *)
  add_int b (String.length s);
  add_raw b s

let one_qubit_kind b (k : Qc.Gate.one_qubit) =
  match k with
  | I -> add_char b 'i'
  | X -> add_char b 'x'
  | Y -> add_char b 'y'
  | Z -> add_char b 'z'
  | H -> add_char b 'h'
  | S -> add_char b 's'
  | Sdg -> add_raw b "sdg"
  | T -> add_char b 't'
  | Tdg -> add_raw b "tdg"
  | Rx a ->
    add_raw b "rx";
    add_float b a
  | Ry a ->
    add_raw b "ry";
    add_float b a
  | Rz a ->
    add_raw b "rz";
    add_float b a
  | U1 a ->
    add_raw b "u1";
    add_float b a
  | U2 (a, c) ->
    add_raw b "u2";
    add_float b a;
    add_float b c
  | U3 (a, c, d) ->
    add_raw b "u3";
    add_float b a;
    add_float b c;
    add_float b d

let two_qubit_kind b (k : Qc.Gate.two_qubit) =
  match k with
  | CX -> add_raw b "cx"
  | CZ -> add_raw b "cz"
  | Swap -> add_raw b "swap"
  | XX a ->
    add_raw b "xx";
    add_float b a
  | Rzz a ->
    add_raw b "rzz";
    add_float b a

let rec add_ints b = function
  | [] -> ()
  | i :: rest ->
    add_int b i;
    add_ints b rest

let add_gate b (g : Qc.Gate.t) =
  (match g with
  | Qc.Gate.One (k, q) ->
    add_char b '1';
    one_qubit_kind b k;
    add_int b q
  | Qc.Gate.Two (k, q1, q2) ->
    add_char b '2';
    two_qubit_kind b k;
    add_int b q1;
    add_int b q2
  | Qc.Gate.Barrier qs ->
    add_char b 'b';
    add_int b (List.length qs);
    add_ints b qs
  | Qc.Gate.Measure (q, c) ->
    add_char b 'm';
    add_int b q;
    add_int b c);
  add_char b '|'

let rec add_gates b = function
  | [] -> ()
  | g :: rest ->
    add_gate b g;
    add_gates b rest

let add_circuit b circuit =
  add_int b (Qc.Circuit.n_qubits circuit);
  add_int b (Qc.Circuit.length circuit);
  add_gates b (Qc.Circuit.gates circuit)

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
let encode ?(collect_stats = false) ?(objective = "makespan")
    ?(metric = "makespan") ~circuit ~maqam ~router ~placement ~restarts ~seed
    () =
  (* a gate takes about 10 bytes *)
  let b =
    { bytes = Bytes.create (256 + (16 * Qc.Circuit.length circuit)); len = 0 }
  in
  add_raw b "codar-fp/2\n";
  add_circuit b circuit;
  add_char b '\n';
  add_coupling b (Arch.Maqam.coupling maqam);
  add_char b '\n';
  add_durations b (Arch.Maqam.durations maqam);
  add_char b '\n';
  add_string b router;
  add_string b placement;
  add_string b objective;
  add_string b metric;
  add_int b restarts;
  add_int b seed;
  (* instrumentation changes the record's bytes, so it is part of identity *)
  add_int b (if collect_stats then 1 else 0);
  b

let canonical_bytes ?collect_stats ?objective ?metric ~circuit ~maqam
    ~router ~placement ~restarts ~seed () =
  let b =
    encode ?collect_stats ?objective ?metric ~circuit ~maqam ~router
      ~placement ~restarts ~seed ()
  in
  Bytes.sub_string b.bytes 0 b.len

let compute ?collect_stats ?objective ?metric ~circuit ~maqam ~router
    ~placement ~restarts ~seed () =
  let b =
    encode ?collect_stats ?objective ?metric ~circuit ~maqam ~router
      ~placement ~restarts ~seed ()
  in
  to_hex (fnv1a64_sub b.bytes b.len)
