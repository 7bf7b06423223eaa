let pi = Float.pi

let swap_as_cx a b = [ Qc.Gate.cx a b; Qc.Gate.cx b a; Qc.Gate.cx a b ]

(* The phase ladder alone implements DFT∘R in our little-endian convention
   (R = bit reversal); a leading layer of SWAPs (as CX triples, the form
   ScaffCC emits) cancels the R so that [qft n] is the exact DFT matrix. *)
let qft ?(reversal = true) n =
  let body =
    List.concat_map
      (fun i ->
        Qc.Gate.h i
        :: List.concat_map
             (fun j -> Qc.Decompose.cphase (Float.ldexp pi (-(j - i))) j i)
             (List.init (n - i - 1) (fun k -> i + 1 + k)))
      (List.init n Fun.id)
  in
  let bit_reversal =
    if reversal then
      List.concat_map (fun i -> swap_as_cx i (n - 1 - i)) (List.init (n / 2) Fun.id)
    else []
  in
  Qc.Circuit.make ~n_qubits:n (bit_reversal @ body)

let ghz n =
  Qc.Circuit.make ~n_qubits:n
    (Qc.Gate.h 0 :: List.init (n - 1) (fun i -> Qc.Gate.cx i (i + 1)))

let bernstein_vazirani ~n ~secret =
  if n < 2 then invalid_arg "bernstein_vazirani: need >= 2 qubits";
  let anc = n - 1 in
  let data = List.init (n - 1) Fun.id in
  let gates =
    [ Qc.Gate.x anc; Qc.Gate.h anc ]
    @ List.map Qc.Gate.h data
    @ List.filter_map
        (fun i -> if secret land (1 lsl i) <> 0 then Some (Qc.Gate.cx i anc) else None)
        data
    @ List.map Qc.Gate.h data
  in
  Qc.Circuit.make ~n_qubits:n gates

let deutsch_jozsa ~n ~balanced =
  if n < 2 then invalid_arg "deutsch_jozsa: need >= 2 qubits";
  let anc = n - 1 in
  let data = List.init (n - 1) Fun.id in
  let oracle =
    if balanced then List.map (fun i -> Qc.Gate.cx i anc) data
    else [ Qc.Gate.x anc ]
  in
  Qc.Circuit.make ~n_qubits:n
    ([ Qc.Gate.x anc; Qc.Gate.h anc ]
    @ List.map Qc.Gate.h data
    @ oracle
    @ List.map Qc.Gate.h data)

(* Cuccaro ripple-carry adder: qubit 0 is the incoming carry, a_i = 1+i,
   b_i = 1+bits+i, and the last qubit receives the carry out. *)
let cuccaro_adder ~bits =
  if bits < 1 then invalid_arg "cuccaro_adder: need >= 1 bit";
  let a i = 1 + i and b i = 1 + bits + i in
  let cout = (2 * bits) + 1 in
  let maj c y x =
    [ Qc.Gate.cx x y; Qc.Gate.cx x c ] @ Qc.Decompose.toffoli c y x
  in
  let uma c y x =
    Qc.Decompose.toffoli c y x @ [ Qc.Gate.cx x c; Qc.Gate.cx c y ]
  in
  let carry i = if i = 0 then 0 else a (i - 1) in
  let majs =
    List.concat_map (fun i -> maj (carry i) (b i) (a i)) (List.init bits Fun.id)
  in
  let umas =
    List.concat_map
      (fun k ->
        let i = bits - 1 - k in
        uma (carry i) (b i) (a i))
      (List.init bits Fun.id)
  in
  Qc.Circuit.make ~n_qubits:((2 * bits) + 2)
    (majs @ [ Qc.Gate.cx (a (bits - 1)) cout ] @ umas)

(* Multi-controlled Z over the data register, with ancillas for wide
   instances. *)
let mcz_on_data ~n ~ancillas =
  match n with
  | 1 -> [ Qc.Gate.z 0 ]
  | 2 -> [ Qc.Gate.cz 0 1 ]
  | 3 -> Qc.Decompose.ccz 0 1 2
  | _ ->
    [ Qc.Gate.h (n - 1) ]
    @ Qc.Decompose.mcx
        ~controls:(List.init (n - 1) Fun.id)
        ~target:(n - 1) ~ancillas
    @ [ Qc.Gate.h (n - 1) ]

let grover ~n ~marked ~iterations =
  if n < 2 then invalid_arg "grover: need >= 2 data qubits";
  if marked < 0 || marked >= 1 lsl n then invalid_arg "grover: bad marked state";
  let n_anc = max 0 (n - 3) in
  let ancillas = List.init n_anc (fun i -> n + i) in
  let data = List.init n Fun.id in
  let flip_unmarked =
    List.filter_map
      (fun i -> if marked land (1 lsl i) = 0 then Some (Qc.Gate.x i) else None)
      data
  in
  let oracle = flip_unmarked @ mcz_on_data ~n ~ancillas @ flip_unmarked in
  let diffusion =
    List.map Qc.Gate.h data
    @ List.map Qc.Gate.x data
    @ mcz_on_data ~n ~ancillas
    @ List.map Qc.Gate.x data
    @ List.map Qc.Gate.h data
  in
  let iteration = oracle @ diffusion in
  Qc.Circuit.make ~n_qubits:(n + n_anc)
    (List.map Qc.Gate.h data
    @ List.concat (List.init iterations (fun _ -> iteration)))

let qaoa_ring ~n ~layers =
  if n < 3 then invalid_arg "qaoa_ring: need >= 3 qubits";
  let layer k =
    let gamma = 0.7 +. (0.1 *. float_of_int k) in
    let beta = 0.4 +. (0.05 *. float_of_int k) in
    List.init n (fun i -> Qc.Gate.rzz gamma i ((i + 1) mod n))
    @ List.init n (fun i -> Qc.Gate.rx beta i)
  in
  Qc.Circuit.make ~n_qubits:n
    (List.init n (fun i -> Qc.Gate.h i)
    @ List.concat (List.init layers layer))

let toffoli_chain ~n ~reps =
  if n < 3 then invalid_arg "toffoli_chain: need >= 3 qubits";
  Qc.Circuit.make ~n_qubits:n
    (List.concat
       (List.init reps (fun _ ->
            List.concat_map
              (fun i -> Qc.Decompose.toffoli i (i + 1) (i + 2))
              (List.init (n - 2) Fun.id))))

let revlib_style ~n ~toffolis ~seed =
  if n < 3 then invalid_arg "revlib_style: need >= 3 qubits";
  let rng = Random.State.make [| seed |] in
  let distinct3 () =
    let a = Random.State.int rng n in
    let rec pick exclude =
      let v = Random.State.int rng n in
      if List.mem v exclude then pick exclude else v
    in
    let b = pick [ a ] in
    let c = pick [ a; b ] in
    (a, b, c)
  in
  let gates =
    List.concat
      (List.init toffolis (fun _ ->
           let a, b, c = distinct3 () in
           match Random.State.int rng 4 with
           | 0 -> [ Qc.Gate.x a; Qc.Gate.cx b c ]
           | 1 -> [ Qc.Gate.cx a b ]
           | 2 | 3 -> Qc.Decompose.toffoli a b c
           | _ -> assert false))
  in
  Qc.Circuit.make ~n_qubits:n gates

let controlled_ry theta c t =
  [
    Qc.Gate.ry (theta /. 2.) t;
    Qc.Gate.cx c t;
    Qc.Gate.ry (-.theta /. 2.) t;
    Qc.Gate.cx c t;
  ]

let w_state n =
  if n < 2 then invalid_arg "w_state: need >= 2 qubits";
  (* amplitude-splitting cascade: after step i the excitation is shared
     between qubit i (weight 1/(n-i)) and qubit i+1 (the rest) *)
  let step i =
    let theta = 2. *. acos (sqrt (1. /. float_of_int (n - i))) in
    controlled_ry theta i (i + 1) @ [ Qc.Gate.cx (i + 1) i ]
  in
  Qc.Circuit.make ~n_qubits:n
    (Qc.Gate.x 0 :: List.concat_map step (List.init (n - 1) Fun.id))

let simon ~n ~secret =
  if n < 2 then invalid_arg "simon: need >= 2 data qubits";
  let data = List.init n Fun.id in
  let copy = List.map (fun i -> Qc.Gate.cx i (n + i)) data in
  let mask =
    List.filter_map
      (fun j ->
        if secret land (1 lsl j) <> 0 then Some (Qc.Gate.cx 0 (n + j)) else None)
      data
  in
  Qc.Circuit.make ~n_qubits:(2 * n)
    (List.map Qc.Gate.h data @ copy @ mask @ List.map Qc.Gate.h data)

let phase_estimation ~counting ~phase =
  if counting < 1 then invalid_arg "phase_estimation: need >= 1 counting qubit";
  let eigen = counting in
  let controlled_powers =
    List.concat_map
      (fun k ->
        Qc.Decompose.cphase
          (Float.ldexp (2. *. pi *. phase) k)
          k eigen)
      (List.init counting Fun.id)
  in
  let inverse_qft =
    match Qc.Circuit.inverse (qft counting) with
    | Some c -> Qc.Circuit.gates c
    | None -> assert false
  in
  Qc.Circuit.make ~n_qubits:(counting + 1)
    ((Qc.Gate.x eigen :: List.init counting Qc.Gate.h)
    @ controlled_powers @ inverse_qft)

let random_circuit ~n ~gates ~two_qubit_fraction ~seed =
  if n < 2 then invalid_arg "random_circuit: need >= 2 qubits";
  let rng = Random.State.make [| seed |] in
  let gate _ =
    if Random.State.float rng 1. < two_qubit_fraction then begin
      let a = Random.State.int rng n in
      let rec other () =
        let b = Random.State.int rng n in
        if b = a then other () else b
      in
      Qc.Gate.cx a (other ())
    end
    else
      let q = Random.State.int rng n in
      match Random.State.int rng 5 with
      | 0 -> Qc.Gate.h q
      | 1 -> Qc.Gate.x q
      | 2 -> Qc.Gate.t q
      | 3 -> Qc.Gate.s q
      | 4 -> Qc.Gate.rz (Random.State.float rng (2. *. pi)) q
      | _ -> assert false
  in
  Qc.Circuit.make ~n_qubits:n (List.init gates gate)
