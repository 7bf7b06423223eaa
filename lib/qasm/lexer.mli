(** Tokenizer for the OpenQASM 2.0 subset (motivating examples in the paper
    are written in OpenQASM; ScaffCC/Qiskit emit it).

    The parser reads tokens one at a time from a {!t}, which holds the
    lookahead token in mutable fields — its kind, byte offsets and line,
    and a number's value in an unboxed slot — and builds an identifier's
    text only when asked.
    [//] comments are skipped. *)

exception Lex_error of int * string
(** line, message *)

type kind =
  | K_eof
  | K_ident
  | K_number
  | K_pi  (** the identifier [pi] in any case *)
  | K_arrow
  | K_lparen
  | K_rparen
  | K_lbracket
  | K_rbracket
  | K_lbrace
  | K_rbrace
  | K_comma
  | K_semicolon
  | K_plus
  | K_minus
  | K_star
  | K_slash
  | K_string

type t = private {
  src : string;
  mutable pos : int;  (** first byte after the lookahead token *)
  mutable line : int;
  mutable kind : kind;  (** the lookahead token *)
  mutable start : int;  (** its first byte ([K_string]: after the quote) *)
  mutable stop : int;  (** one past its last byte *)
  mutable tline : int;  (** its line *)
  mutable int_value : int;
      (** [K_number] written in digits only: its value, or [-1] when it
          exceeds [max_int]; [-2] for any other number *)
  value : float array;
      (** one slot, unboxed: a [K_number]'s value, equal to
          [float_of_string] of its text *)
}

val create : string -> t
(** A scanner on the first token. Raises {!Lex_error}. *)

val next : t -> unit
(** Move to the next token ([K_eof] stays put). Raises {!Lex_error}. *)

val text : t -> string
(** The lookahead token's bytes. *)

val lower : char -> char
(** ASCII lower case. *)
