(** OpenQASM 2.0 reader.

    Supports the subset the mapping literature uses: [OPENQASM]/[include]
    headers, [qreg]/[creg] declarations (multiple registers are flattened in
    declaration order), the qelib1 gate set (applied built-ins below),
    register broadcast, [barrier], [measure], and {e user [gate] macro
    definitions}, which are expanded recursively at application time — so
    ScaffCC/Qiskit output runs without shipping [qelib1.inc].

    Built-ins: [id x y z h s sdg t tdg rx ry rz p u1 u2 u3 u U cx CX cz swap
    rzz rxx ccx cswap cu1 cp crz]. Multi-qubit built-ins with no native gate
    ([ccx], [cswap], [cu1]/[cp], [crz]) are decomposed via {!Qc.Decompose}. *)

exception Parse_error of int * string
(** line, message *)

exception Too_wide of { line : int; qubits : int; limit : int }
(** A [qreg] at [line] takes the width to [qubits], past the [limit] given
    as [max_qubits]. *)

val parse : ?max_qubits:int -> string -> Qc.Circuit.t
(** One pass over the text. Raises {!Parse_error} or {!Lexer.Lex_error}
    and, given [max_qubits] (the device's width, when the caller knows the
    device), {!Too_wide}; nothing else, whatever the text. A register that
    makes the circuit wider than [max_qubits] is refused at its
    declaration, before any gate expands over it.

    Beyond syntax, unknown names and arity, these are refused with
    {!Parse_error} at the statement's line:
    - a two- or three-qubit gate applied to one qubit twice, written
      directly or reached through a gate macro ([cx q[0],q[0];]);
    - a register index or size that is not an exact non-negative integer
      ([q[1.0]] reads as [q[1]]; [q[0.5]] is refused), or that exceeds
      [max_int] ([q[1e30]], a 20-digit index), and a register that takes
      the running qubit or clbit count past [max_int];
    - a gate macro whose expansion reaches itself;
    - a NaN or infinite gate parameter;
    - a statement that takes the circuit past 1,000,000 gates (ten times
      the largest suite circuit, [rand_128_100k]; a barrier counts once
      per qubit it lists) or as many gate-macro applications. A short
      text can name far more through register broadcast and nested
      macros, so this bounds the work a text causes before any router
      sees it. *)

val parse_file : ?max_qubits:int -> string -> Qc.Circuit.t
