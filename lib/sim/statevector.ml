type t = { n : int; amps : Complex.t array }

let init n =
  if n < 0 || n > 24 then invalid_arg "Statevector.init: 0 <= n <= 24";
  let amps = Array.make (1 lsl n) Complex.zero in
  amps.(0) <- Complex.one;
  { n; amps }

let n_qubits t = t.n
let copy t = { t with amps = Array.copy t.amps }
let amplitude t i = t.amps.(i)

let norm t =
  sqrt
    (Array.fold_left (fun acc a -> acc +. (Complex.norm2 a)) 0. t.amps)

let normalize t =
  let n = norm t in
  if n > 0. then
    Array.iteri
      (fun i a -> t.amps.(i) <- Complex.div a { Complex.re = n; im = 0. })
      t.amps

(* ⟨a|b⟩ *)
let inner a b =
  if a.n <> b.n then invalid_arg "Statevector.inner: width mismatch";
  let acc = ref Complex.zero in
  Array.iteri
    (fun i x -> acc := Complex.add !acc (Complex.mul (Complex.conj x) b.amps.(i)))
    a.amps;
  !acc

let fidelity a b = Complex.norm2 (inner a b)

let apply_matrix1 t (m : Qc.Matrix.t) q =
  if q < 0 || q >= t.n then invalid_arg "Statevector: qubit out of range";
  let bit = 1 lsl q in
  let size = 1 lsl t.n in
  let i = ref 0 in
  while !i < size do
    if !i land bit = 0 then begin
      let j = !i lor bit in
      let a = t.amps.(!i) and b = t.amps.(j) in
      t.amps.(!i) <-
        Complex.add (Complex.mul m.(0).(0) a) (Complex.mul m.(0).(1) b);
      t.amps.(j) <-
        Complex.add (Complex.mul m.(1).(0) a) (Complex.mul m.(1).(1) b)
    end;
    incr i
  done

let apply_matrix2 t (m : Qc.Matrix.t) q1 q2 =
  if q1 = q2 then invalid_arg "Statevector: repeated operand";
  let b1 = 1 lsl q1 and b2 = 1 lsl q2 in
  let size = 1 lsl t.n in
  let idx = Array.make 4 0 in
  let vec = Array.make 4 Complex.zero in
  let i = ref 0 in
  while !i < size do
    if !i land b1 = 0 && !i land b2 = 0 then begin
      (* small index: bit0 = q1, bit1 = q2 *)
      idx.(0) <- !i;
      idx.(1) <- !i lor b1;
      idx.(2) <- !i lor b2;
      idx.(3) <- !i lor b1 lor b2;
      for s = 0 to 3 do
        vec.(s) <- t.amps.(idx.(s))
      done;
      for s = 0 to 3 do
        let acc = ref Complex.zero in
        for s' = 0 to 3 do
          acc := Complex.add !acc (Complex.mul m.(s).(s') vec.(s'))
        done;
        t.amps.(idx.(s)) <- !acc
      done
    end;
    incr i
  done

let apply t (g : Qc.Gate.t) =
  match g with
  | Qc.Gate.One (k, q) -> apply_matrix1 t (Qc.Matrix.of_one_qubit k) q
  | Qc.Gate.Two (k, q1, q2) -> apply_matrix2 t (Qc.Matrix.of_two_qubit k) q1 q2
  | Qc.Gate.Barrier _ -> ()
  | Qc.Gate.Measure _ ->
    invalid_arg "Statevector.apply: Measure is not unitary"

let apply_circuit t c = List.iter (apply t) (Qc.Circuit.gates c)

let measure_probability t q =
  let bit = 1 lsl q in
  let acc = ref 0. in
  Array.iteri
    (fun i a -> if i land bit <> 0 then acc := !acc +. Complex.norm2 a)
    t.amps;
  !acc

let run c =
  let t = init (Qc.Circuit.n_qubits c) in
  apply_circuit t c;
  t

let random_state rng n =
  let t = init n in
  let gauss () =
    (* Box–Muller *)
    let u1 = Random.State.float rng 1. +. 1e-12 in
    let u2 = Random.State.float rng 1. in
    sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
  in
  Array.iteri
    (fun i _ -> t.amps.(i) <- { Complex.re = gauss (); im = gauss () })
    t.amps;
  normalize t;
  t

let embed t ~n_physical ~place =
  if n_physical < t.n then invalid_arg "Statevector.embed: shrinking";
  let out = init n_physical in
  out.amps.(0) <- Complex.zero;
  let size = 1 lsl t.n in
  for b = 0 to size - 1 do
    let phys = ref 0 in
    for q = 0 to t.n - 1 do
      if b land (1 lsl q) <> 0 then phys := !phys lor (1 lsl place q)
    done;
    out.amps.(!phys) <- t.amps.(b)
  done;
  out
