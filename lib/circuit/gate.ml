type one_qubit =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float
  | U1 of float
  | U2 of float * float
  | U3 of float * float * float

type two_qubit =
  | CX
  | CZ
  | Swap
  | XX of float
  | Rzz of float

type t =
  | One of one_qubit * int
  | Two of two_qubit * int * int
  | Barrier of int list
  | Measure of int * int

let qubits = function
  | One (_, q) -> [ q ]
  | Two (_, q1, q2) -> [ q1; q2 ]
  | Barrier qs -> qs
  | Measure (q, _) -> [ q ]


let is_two_qubit = function
  | Two _ -> true
  | One _ | Barrier _ | Measure _ -> false

let is_swap = function
  | Two (Swap, _, _) -> true
  | Two ((CX | CZ | XX _ | Rzz _), _, _) | One _ | Barrier _ | Measure _ ->
    false

let is_unitary = function
  | One _ | Two _ -> true
  | Barrier _ | Measure _ -> false

let one_qubit_name = function
  | I -> "id"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | Rx _ -> "rx"
  | Ry _ -> "ry"
  | Rz _ -> "rz"
  | U1 _ -> "u1"
  | U2 _ -> "u2"
  | U3 _ -> "u3"

let two_qubit_name = function
  | CX -> "cx"
  | CZ -> "cz"
  | Swap -> "swap"
  | XX _ -> "xx"
  | Rzz _ -> "rzz"

let name = function
  | One (k, _) -> one_qubit_name k
  | Two (k, _, _) -> two_qubit_name k
  | Barrier _ -> "barrier"
  | Measure _ -> "measure"

let remap f = function
  | One (k, q) -> One (k, f q)
  | Two (k, q1, q2) -> Two (k, f q1, f q2)
  | Barrier qs -> Barrier (List.map f qs)
  | Measure (q, c) -> Measure (f q, c)

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let params = function
  | One ((I | X | Y | Z | H | S | Sdg | T | Tdg), _) -> []
  | One ((Rx a | Ry a | Rz a | U1 a), _) -> [ a ]
  | One (U2 (a, b), _) -> [ a; b ]
  | One (U3 (a, b, c), _) -> [ a; b; c ]
  | Two ((CX | CZ | Swap), _, _) -> []
  | Two ((XX a | Rzz a), _, _) -> [ a ]
  | Barrier _ | Measure _ -> []

let pp ppf g =
  let pp_params ppf = function
    | [] -> ()
    | ps ->
      Fmt.pf ppf "(%a)" Fmt.(list ~sep:(Fmt.any ", ") (fmt "%g")) ps
  in
  match g with
  | Measure (q, c) -> Fmt.pf ppf "measure q[%d] -> c[%d]" q c
  | One _ | Two _ | Barrier _ ->
    Fmt.pf ppf "%s%a %a" (name g) pp_params (params g)
      Fmt.(list ~sep:(Fmt.any ", ") (fmt "q[%d]"))
      (qubits g)

let to_string g = Fmt.str "%a" pp g

let i q = One (I, q)
let x q = One (X, q)
let y q = One (Y, q)
let z q = One (Z, q)
let h q = One (H, q)
let s q = One (S, q)
let sdg q = One (Sdg, q)
let t q = One (T, q)
let tdg q = One (Tdg, q)
let rx a q = One (Rx a, q)
let ry a q = One (Ry a, q)
let rz a q = One (Rz a, q)
let u1 a q = One (U1 a, q)
let u2 a b q = One (U2 (a, b), q)
let u3 a b c q = One (U3 (a, b, c), q)
let cx q1 q2 = Two (CX, q1, q2)
let cz q1 q2 = Two (CZ, q1, q2)
let swap q1 q2 = Two (Swap, q1, q2)
let xx a q1 q2 = Two (XX a, q1, q2)
let rzz a q1 q2 = Two (Rzz a, q1, q2)
let barrier qs = Barrier qs
let measure q c = Measure (q, c)

let diagonal_on g q =
  match g with
  | One ((I | Z | S | Sdg | T | Tdg | Rz _ | U1 _), q') -> q = q'
  | One ((X | Y | H | Rx _ | Ry _ | U2 _ | U3 _), _) -> false
  | Two ((CZ | Rzz _), q1, q2) -> q = q1 || q = q2
  | Two (CX, c, _) -> q = c
  | Two ((Swap | XX _), _, _) -> false
  | Barrier _ | Measure _ -> false

let x_like_on g q =
  match g with
  | One ((I | X | Rx _), q') -> q = q'
  | One ((Y | Z | H | S | Sdg | T | Tdg | Ry _ | Rz _ | U1 _ | U2 _ | U3 _), _)
    ->
    false
  | Two (XX _, q1, q2) -> q = q1 || q = q2
  | Two (CX, _, t) -> q = t
  | Two ((CZ | Swap | Rzz _), _, _) -> false
  | Barrier _ | Measure _ -> false

let inverse = function
  | One (I, q) -> Some (One (I, q))
  | One (X, q) -> Some (One (X, q))
  | One (Y, q) -> Some (One (Y, q))
  | One (Z, q) -> Some (One (Z, q))
  | One (H, q) -> Some (One (H, q))
  | One (S, q) -> Some (One (Sdg, q))
  | One (Sdg, q) -> Some (One (S, q))
  | One (T, q) -> Some (One (Tdg, q))
  | One (Tdg, q) -> Some (One (T, q))
  | One (Rx a, q) -> Some (One (Rx (-.a), q))
  | One (Ry a, q) -> Some (One (Ry (-.a), q))
  | One (Rz a, q) -> Some (One (Rz (-.a), q))
  | One (U1 a, q) -> Some (One (U1 (-.a), q))
  | One (U2 (a, b), q) ->
    Some (One (U3 (-.Float.pi /. 2., -.b, -.a), q))
  | One (U3 (a, b, c), q) -> Some (One (U3 (-.a, -.c, -.b), q))
  | Two (CX, a, b) -> Some (Two (CX, a, b))
  | Two (CZ, a, b) -> Some (Two (CZ, a, b))
  | Two (Swap, a, b) -> Some (Two (Swap, a, b))
  | Two (XX t, a, b) -> Some (Two (XX (-.t), a, b))
  | Two (Rzz t, a, b) -> Some (Two (Rzz (-.t), a, b))
  | Barrier _ | Measure _ -> None
