type t = {
  length : int;
  gates : Qc.Gate.t array;
  data : Bytes.t;
  initial : Arch.Layout.t;
  final : Arch.Layout.t;
  makespan : int;
  n_logical : int;
}

(* Event [k]'s bytes from [24k]: start and duration as 64-bit integers,
   then the two operands as 32-bit ones (a device has at most 1024
   qubits). *)
let bytes_per_event = 24

let start t k = Int64.to_int (Bytes.get_int64_ne t.data (bytes_per_event * k))

let duration t k =
  Int64.to_int (Bytes.get_int64_ne t.data ((bytes_per_event * k) + 8))

let operand t k i =
  Int32.to_int (Bytes.get_int32_ne t.data ((bytes_per_event * k) + 16 + (4 * i)))

let write data k ~start ~duration a b =
  let o = bytes_per_event * k in
  Bytes.set_int64_ne data o (Int64.of_int start);
  Bytes.set_int64_ne data (o + 8) (Int64.of_int duration);
  Bytes.set_int32_ne data (o + 16) (Int32.of_int a);
  Bytes.set_int32_ne data (o + 20) (Int32.of_int b)

let inserted_swap = Qc.Gate.Two (Qc.Gate.Swap, -1, -1)

let is_inserted t k = t.gates.(k) == inserted_swap

let swap_count t =
  let n = ref 0 in
  for k = 0 to t.length - 1 do
    if is_inserted t k then incr n
  done;
  !n

let gate t k =
  let g = t.gates.(k) in
  let a = operand t k 0 and b = operand t k 1 in
  if g == inserted_swap then Qc.Gate.swap a b
  else
    match g with
    | Qc.Gate.One (kind, q) -> if q = a then g else Qc.Gate.One (kind, a)
    | Qc.Gate.Two (kind, q1, q2) ->
      if q1 = a && q2 = b then g else Qc.Gate.Two (kind, a, b)
    | Qc.Gate.Measure (q, c) -> if q = a then g else Qc.Gate.Measure (a, c)
    | Qc.Gate.Barrier _ -> g

let unit_finish ready t k =
  match t.gates.(k) with
  | Qc.Gate.Barrier _ as g -> Qc.Metrics.finish_time ready g 1
  | Qc.Gate.One _ | Qc.Gate.Measure _ ->
    let a = operand t k 0 in
    let f = Int.max 0 ready.(a) + 1 in
    ready.(a) <- f;
    f
  | Qc.Gate.Two _ ->
    let a = operand t k 0 and b = operand t k 1 in
    let f = Int.max 0 (Int.max ready.(a) ready.(b)) + 1 in
    ready.(a) <- f;
    ready.(b) <- f;
    f

let raw_depth ~n_physical t =
  let ready = Array.make n_physical 0 and depth = ref 0 in
  for k = 0 to t.length - 1 do
    depth := Int.max !depth (unit_finish ready t k)
  done;
  !depth

let set_physical gates data k ~inserted g ~start ~duration =
  let a, b =
    match g with
    | Qc.Gate.One (_, q) | Qc.Gate.Measure (q, _) -> (q, -1)
    | Qc.Gate.Two (_, q1, q2) -> (q1, q2)
    | Qc.Gate.Barrier _ -> (-1, -1)
  in
  gates.(k) <- (if inserted && Qc.Gate.is_swap g then inserted_swap else g);
  write data k ~start ~duration a b

let copy t =
  {
    t with
    gates = Array.sub t.gates 0 t.length;
    data = Bytes.sub t.data 0 (bytes_per_event * t.length);
  }

let event t k =
  {
    Routed.gate = gate t k;
    start = start t k;
    duration = duration t k;
    inserted = is_inserted t k;
  }

(* A parameter-free kind's index, or -1. *)
let kind_code = function
  | Qc.Gate.One (Qc.Gate.I, _) -> 0
  | Qc.Gate.One (Qc.Gate.X, _) -> 1
  | Qc.Gate.One (Qc.Gate.Y, _) -> 2
  | Qc.Gate.One (Qc.Gate.Z, _) -> 3
  | Qc.Gate.One (Qc.Gate.H, _) -> 4
  | Qc.Gate.One (Qc.Gate.S, _) -> 5
  | Qc.Gate.One (Qc.Gate.Sdg, _) -> 6
  | Qc.Gate.One (Qc.Gate.T, _) -> 7
  | Qc.Gate.One (Qc.Gate.Tdg, _) -> 8
  | Qc.Gate.Two (Qc.Gate.CX, _, _) -> 9
  | Qc.Gate.Two (Qc.Gate.CZ, _, _) -> 10
  | Qc.Gate.Two (Qc.Gate.Swap, _, _) -> 11
  | Qc.Gate.One
      ( ( Qc.Gate.Rx _ | Qc.Gate.Ry _ | Qc.Gate.Rz _ | Qc.Gate.U1 _
        | Qc.Gate.U2 _ | Qc.Gate.U3 _ ),
        _ )
  | Qc.Gate.Two ((Qc.Gate.XX _ | Qc.Gate.Rzz _), _, _)
  | Qc.Gate.Barrier _ | Qc.Gate.Measure _ ->
    -1

(* The list's events share the physical gates of parameter-free kinds
   through a small direct-mapped cache keyed by kind and operands: a
   long schedule repeats a few hundred such gates (the 275 paper-batch
   routes apply 9,457 distinct ones in 214,269 of their 234,042 events),
   and the list would otherwise build one per event. A slot holds the
   last gate that hashed to it; a miss builds the gate. *)
let to_routed t =
  let n = Arch.Layout.n_physical t.final + 1 in
  let keys = Array.make 256 (-1) and gates = Array.make 256 inserted_swap in
  let physical k =
    let code = kind_code t.gates.(k) in
    if code < 0 then gate t k
    else
      let key = (((code * n) + operand t k 0 + 1) * n) + operand t k 1 + 1 in
      let slot = ((key * 2654435761) lsr 16) land 255 in
      if keys.(slot) = key then gates.(slot)
      else begin
        let g = gate t k in
        keys.(slot) <- key;
        gates.(slot) <- g;
        g
      end
  in
  let events = ref [] in
  for k = t.length - 1 downto 0 do
    events :=
      {
        Routed.gate = physical k;
        start = start t k;
        duration = duration t k;
        inserted = is_inserted t k;
      }
      :: !events
  done;
  {
    Routed.events = !events;
    initial = t.initial;
    final = t.final;
    makespan = t.makespan;
    n_logical = t.n_logical;
  }

let of_routed (r : Routed.t) =
  let n = List.length r.events in
  let gates = Array.make n inserted_swap in
  let data = Bytes.create (bytes_per_event * n) in
  List.iteri
    (fun k (e : Routed.event) ->
      set_physical gates data k ~inserted:e.inserted e.gate ~start:e.start
        ~duration:e.duration)
    r.events;
  {
    length = n;
    gates;
    data;
    initial = r.initial;
    final = r.final;
    makespan = r.makespan;
    n_logical = r.n_logical;
  }
