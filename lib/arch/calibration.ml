type t = {
  name : string;
  one_qubit_fidelity : float;
  two_qubit_fidelity : float;
  swap_fidelity : float;  (* three two-qubit gates *)
  readout_fidelity : float;
  t1_cycles : float;
  t2_cycles : float;
}

let make ~name ~one_qubit_fidelity ~two_qubit_fidelity ~readout_fidelity
    ~t1_cycles ~t2_cycles =
  let check_f what f =
    if not (f > 0. && f <= 1.) then
      invalid_arg (Fmt.str "Calibration.make: %s fidelity %g not in (0,1]" what f)
  in
  check_f "one-qubit" one_qubit_fidelity;
  check_f "two-qubit" two_qubit_fidelity;
  check_f "readout" readout_fidelity;
  if t1_cycles <= 0. || t2_cycles <= 0. then
    invalid_arg "Calibration.make: time constants must be positive";
  if t2_cycles > 2. *. t1_cycles then
    invalid_arg "Calibration.make: unphysical (t2 > 2*t1)";
  { name; one_qubit_fidelity; two_qubit_fidelity;
    swap_fidelity = two_qubit_fidelity ** 3.; readout_fidelity;
    t1_cycles; t2_cycles }

let name t = t.name
let one_qubit_fidelity t = t.one_qubit_fidelity
let two_qubit_fidelity t = t.two_qubit_fidelity
let t1_cycles t = t.t1_cycles
let t2_cycles t = t.t2_cycles

let gate_fidelity t = function
  | Qc.Gate.One _ -> t.one_qubit_fidelity
  | Qc.Gate.Two (Qc.Gate.Swap, _, _) -> t.swap_fidelity
  | Qc.Gate.Two ((Qc.Gate.CX | Qc.Gate.CZ | Qc.Gate.XX _ | Qc.Gate.Rzz _), _, _)
    ->
    t.two_qubit_fidelity
  | Qc.Gate.Barrier _ -> 1.
  | Qc.Gate.Measure _ -> t.readout_fidelity

let superconducting =
  make ~name:"superconducting" ~one_qubit_fidelity:0.997
    ~two_qubit_fidelity:0.965 ~readout_fidelity:0.93 ~t1_cycles:435.
    ~t2_cycles:435.

(* Table I, Ion Q5/Q11: effectively no decay within a circuit *)
let ion_trap =
  make ~name:"ion-trap" ~one_qubit_fidelity:0.993 ~two_qubit_fidelity:0.973
    ~readout_fidelity:0.994 ~t1_cycles:infinity ~t2_cycles:25_000.

let neutral_atom =
  make ~name:"neutral-atom" ~one_qubit_fidelity:0.99995
    ~two_qubit_fidelity:0.82 ~readout_fidelity:0.986 ~t1_cycles:1_000_000.
    ~t2_cycles:100_000.

let all_presets = [ superconducting; ion_trap; neutral_atom ]

let for_durations d =
  List.find_opt (fun c -> String.equal c.name (Durations.name d)) all_presets

let pp ppf t =
  Fmt.pf ppf "%s: f1=%.4f f2=%.4f readout=%.3f T1=%g T2=%g" t.name
    t.one_qubit_fidelity t.two_qubit_fidelity t.readout_fidelity t.t1_cycles
    t.t2_cycles
