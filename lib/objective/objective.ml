(* Routing objectives: when the CODAR SWAP loop issues its best
   candidate. Both objectives rank candidates by Hbasic, then Hfine, then
   the smallest edge; they differ only in the issue threshold. *)

type t = Makespan | T2

let makespan = Makespan
let t2 = T2
let all = [ Makespan; T2 ]
let name = function Makespan -> "makespan" | T2 -> "t2"
let names = List.map name all
let of_name s = List.find_opt (fun o -> String.equal (name o) s) all

let list_of_string s =
  let parts = String.split_on_char ',' s |> List.map String.trim in
  if parts = [] || List.exists (fun p -> p = "") parts then
    Error (Fmt.str "empty objective name in %S" s)
  else
    List.fold_left
      (fun acc p ->
        match (acc, of_name p) with
        | Error _, _ -> acc
        | Ok _, None ->
          Error
            (Fmt.str "unknown objective %S (expected one of %s)" p
               (String.concat ", " names))
        | Ok l, Some o -> Ok (l @ [ o ]))
      (Ok []) parts

let string_of_list os = String.concat "," (List.map name os)

(* TRAM-style (arXiv:2511.16051) transverse-relaxation awareness: where
   one SWAP's gate error outweighs the decoherence bought by finishing a
   few qubit-cycles sooner, demand a distance gain of at least 2 per SWAP
   (threshold 1). The router then leans on fewer SWAPs (plus the
   deadlock-escape forced SWAP) and trades makespan for estimated
   success probability. With no calibration it is the makespan rule. *)
let t2_issue_min durations =
  match Arch.Calibration.for_durations durations with
  | None -> 0
  | Some c ->
    let swap_log_err = -3. *. log (Arch.Calibration.two_qubit_fidelity c) in
    let t1 = Arch.Calibration.t1_cycles c in
    let t2 = Arch.Calibration.t2_cycles c in
    let inv_tphi = (1. /. t2) -. (1. /. (2. *. t1)) in
    let idle_rate = (1. /. t1) +. Float.max 0. inv_tphi in
    (* frugal iff one SWAP's log-fidelity cost exceeds ~20 qubit-cycles
       of decoherence over its own duration: superconducting (short T2)
       stays aggressive, ion-trap and neutral-atom turn frugal *)
    if
      swap_log_err
      > 20. *. float_of_int (Arch.Durations.swap durations) *. idle_rate
    then 1
    else 0

let issue_min o durations =
  match o with Makespan -> 0 | T2 -> t2_issue_min durations
