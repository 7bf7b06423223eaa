(* Tests for the [arch] library: coupling graphs, device zoo, duration
   profiles, layouts and the maQAM facade. *)

(* --------------------------------------------------------------- coupling *)

let test_make_validation () =
  let reject name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "self loop" (fun () -> Arch.Coupling.make ~name:"x" ~n:3 [ (1, 1) ]);
  reject "out of range" (fun () -> Arch.Coupling.make ~name:"x" ~n:3 [ (0, 3) ]);
  reject "duplicate" (fun () ->
      Arch.Coupling.make ~name:"x" ~n:3 [ (0, 1); (1, 0) ]);
  reject "coords length" (fun () ->
      Arch.Coupling.make ~coords:[| (0., 0.) |] ~name:"x" ~n:2 [ (0, 1) ])

let test_path_distances () =
  let path = Arch.Devices.linear 5 in
  Alcotest.(check int) "d(0,4)" 4 (Arch.Coupling.distance path 0 4);
  Alcotest.(check int) "d(2,2)" 0 (Arch.Coupling.distance path 2 2);
  Alcotest.(check bool) "adjacent" true (Arch.Coupling.adjacent path 1 2);
  Alcotest.(check bool) "not adjacent" false (Arch.Coupling.adjacent path 0 2);
  Alcotest.(check bool) "not self-adjacent" false (Arch.Coupling.adjacent path 2 2);
  Alcotest.(check (list int)) "neighbors" [ 1; 3 ] (Arch.Coupling.neighbors path 2);
  Alcotest.(check int) "degree" 1 (Arch.Coupling.degree path 0)

let test_disconnected () =
  let g = Arch.Coupling.make ~name:"two-islands" ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "not connected" false (Arch.Coupling.connected g);
  Alcotest.(check bool) "0-1 reachable" true (Arch.Coupling.reachable g 0 1);
  Alcotest.(check bool) "self reachable" true (Arch.Coupling.reachable g 2 2);
  Alcotest.(check bool) "0-3 unreachable" false (Arch.Coupling.reachable g 0 3);
  (* distance across components is a typed failure, not a max_int sentinel
     for callers to overflow with (the PR-6 bugfix) *)
  Alcotest.(check bool) "cross-component distance raises" true
    (try
       ignore (Arch.Coupling.distance g 0 3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "intra-component distance" 1
    (Arch.Coupling.distance g 2 3);
  let table = Arch.Coupling.distance_table g in
  Alcotest.(check int) "raw table sentinel"
    Arch.Coupling.unreachable_distance
    table.((0 * 4) + 3)

let test_bounds_checks () =
  (* both endpoints must be validated: historically [adjacent] checked only
     the second, so a bad first index read the wrong matrix row *)
  let g = Arch.Devices.linear 4 in
  let reject name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "adjacent bad a" (fun () -> Arch.Coupling.adjacent g 7 1);
  reject "adjacent bad b" (fun () -> Arch.Coupling.adjacent g 1 7);
  reject "adjacent negative a" (fun () -> Arch.Coupling.adjacent g (-1) 1);
  reject "distance bad a" (fun () -> Arch.Coupling.distance g 9 0);
  reject "distance bad b" (fun () -> Arch.Coupling.distance g 0 9);
  reject "distance negative b" (fun () -> Arch.Coupling.distance g 0 (-2));
  reject "reachable bad a" (fun () -> Arch.Coupling.reachable g 4 0)

let test_coords () =
  (* a grid's layout positions, which Hfine reads: qubit r*cols + c sits
     at (c, r) *)
  let g = Arch.Devices.grid ~rows:2 ~cols:3 in
  let at = Alcotest.(pair (float 1e-9) (float 1e-9)) in
  (match Arch.Coupling.coords g with
  | None -> Alcotest.fail "grid has no coords"
  | Some cs ->
    Alcotest.check at "coord of 4" (1., 1.) cs.(4);
    Alcotest.check at "coord of 2" (2., 0.) cs.(2);
    Alcotest.check at "coord of 3" (0., 1.) cs.(3));
  Alcotest.(check bool) "no coords" true
    (Arch.Coupling.coords (Arch.Devices.fully_connected 4) = None)

(* distance properties on random connected graphs *)
let graph_gen =
  let open QCheck.Gen in
  let* n = int_range 2 12 in
  (* a random spanning tree plus random extra edges keeps it connected *)
  let* tree =
    flatten_l
      (List.init (n - 1) (fun i ->
           let* p = int_range 0 i in
           return (p, i + 1)))
  in
  let* extra =
    list_size (int_range 0 8)
      (let* a = int_range 0 (n - 1) in
       let* b = int_range 0 (n - 1) in
       return (a, b))
  in
  let extra =
    List.filter_map
      (fun (a, b) ->
        if a = b then None
        else
          let e = (min a b, max a b) in
          if List.exists (fun (x, y) -> (min x y, max x y) = e) tree then None
          else Some e)
      extra
    |> List.sort_uniq Stdlib.compare
  in
  return (n, tree @ extra)

let graph_arb =
  QCheck.make
    ~print:(fun (n, es) ->
      Fmt.str "n=%d edges=%a" n
        Fmt.(list ~sep:(Fmt.any ";") (pair ~sep:(Fmt.any ",") int int))
        es)
    graph_gen

let prop_distance_metric =
  QCheck.Test.make ~count:200 ~name:"BFS distances form a metric" graph_arb
    (fun (n, edges) ->
      let g = Arch.Coupling.make ~name:"rand" ~n edges in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let d = Arch.Coupling.distance g a b in
          if d <> Arch.Coupling.distance g b a then ok := false;
          if (d = 0) <> (a = b) then ok := false;
          if (d = 1) <> Arch.Coupling.adjacent g a b then ok := false;
          for c = 0 to n - 1 do
            let dc = Arch.Coupling.distance g a c
            and cb = Arch.Coupling.distance g c b in
            if dc + cb < d then ok := false
          done
        done
      done;
      !ok)

(* --------------------------------------------------------- distance table *)

(* Random couplings up to 200 qubits: a random spanning tree (with some
   child edges optionally dropped, so multi-component graphs — and their
   -1 sentinels — are generated too) plus random extra edges. *)
let big_graph_gen =
  let open QCheck.Gen in
  let* n = int_range 2 200 in
  let* tree =
    flatten_l
      (List.init (n - 1) (fun i ->
           let* p = int_range 0 i in
           return (p, i + 1)))
  in
  let* split = bool in
  let* dropped =
    if split then list_size (int_range 1 3) (int_range 1 (n - 1))
    else return []
  in
  let tree = List.filter (fun (_, c) -> not (List.mem c dropped)) tree in
  let* extra =
    list_size
      (int_range 0 (min 40 n))
      (let* a = int_range 0 (n - 1) in
       let* b = int_range 0 (n - 1) in
       return (a, b))
  in
  let extra =
    List.filter_map
      (fun (a, b) ->
        if a = b then None
        else
          let e = (min a b, max a b) in
          if List.exists (fun (x, y) -> (min x y, max x y) = e) tree then
            None
          else Some e)
      extra
    |> List.sort_uniq Stdlib.compare
  in
  return (n, tree @ extra)

let big_graph_arb =
  QCheck.make
    ~print:(fun (n, es) ->
      Fmt.str "n=%d edges=%a" n
        Fmt.(list ~sep:(Fmt.any ";") (pair ~sep:(Fmt.any ",") int int))
        es)
    big_graph_gen

(* An oracle written apart from [Coupling.make]'s BFS: Floyd–Warshall
   over the edge list, with unreachable pairs mapped to the -1 sentinel. *)
let floyd_warshall n edges =
  let inf = max_int / 2 in
  let d =
    Array.init n (fun a -> Array.init n (fun b -> if a = b then 0 else inf))
  in
  List.iter
    (fun (a, b) ->
      d.(a).(b) <- 1;
      d.(b).(a) <- 1)
    edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = d.(i).(k) in
      for j = 0 to n - 1 do
        if dik + d.(k).(j) < d.(i).(j) then d.(i).(j) <- dik + d.(k).(j)
      done
    done
  done;
  Array.map (Array.map (fun x -> if x >= inf then -1 else x)) d

(* On any coupling — connected or not — the table holds exactly the
   reference's integers, -1 sentinel included, and adjacency, diameter
   and connectivity agree with the edge list and the reference. *)
let prop_table_equals_floyd_warshall =
  QCheck.Test.make ~count:100
    ~name:"distance table = Floyd-Warshall reference (incl. -1 sentinel)"
    big_graph_arb
    (fun (n, edges) ->
      let g = Arch.Coupling.make ~name:"g" ~n edges in
      let fw = floyd_warshall n edges in
      let is_edge = Array.make_matrix n n false in
      List.iter
        (fun (a, b) ->
          is_edge.(a).(b) <- true;
          is_edge.(b).(a) <- true)
        edges;
      let ok = ref true and diameter = ref 0 and connected = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let d = fw.(a).(b) in
          if Arch.Coupling.distance_raw g a b <> d then ok := false;
          if Arch.Coupling.adjacent g a b <> is_edge.(a).(b) then ok := false;
          if d > !diameter then diameter := d;
          if d < 0 then connected := false
        done
      done;
      !ok
      && Arch.Coupling.diameter g = !diameter
      && Arch.Coupling.connected g = !connected)

(* [max_qubits] bounds the table at 8 MB: [make] refuses a qubit or an
   edge past the bound, and [by_name] answers [None] for every name whose
   device [make] would refuse, before building it. *)
let test_size_bound () =
  let bound = Arch.Coupling.max_qubits in
  Alcotest.(check int) "max_qubits" 1024 bound;
  let refused f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "make refuses 1025 qubits" true
    (refused (fun () -> Arch.Coupling.make ~name:"x" ~n:(bound + 1) []));
  Alcotest.(check bool) "make takes 1024 qubits" false
    (refused (fun () -> Arch.Coupling.make ~name:"x" ~n:bound []));
  (* 8193 distinct edges among 1024 qubits: every qubit to its next 8
     (8192 edges), plus one more *)
  let edges =
    List.concat
      (List.init bound (fun a ->
           List.init 8 (fun k -> (a, (a + k + 1) mod bound))))
  in
  Alcotest.(check bool) "make takes 8192 edges" false
    (refused (fun () -> Arch.Coupling.make ~name:"x" ~n:bound edges));
  Alcotest.(check bool) "make refuses 8193 edges" true
    (refused (fun () ->
         Arch.Coupling.make ~name:"x" ~n:bound ((0, 100) :: edges)));
  List.iter
    (fun name ->
      match Arch.Devices.by_name name with
      | Some c ->
        Alcotest.(check bool) (name ^ ": table of at most 8 MB") true
          (Arch.Coupling.dist_bytes c <= 8 * 1024 * 1024)
      | None -> Alcotest.failf "by_name refuses %s" name)
    [ "linear-1024"; "grid-32x32"; "full-128"; "heavy-hex-19" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " refused") true
        (Arch.Devices.by_name name = None))
    [
      "linear-1025"; "grid-33x32"; "full-129"; "heavy-hex-21";
      "linear-1000000"; "full-2000"; "ring-1025";
      "grid-4611686018427387904x4"; "heavy-hex-4611686018427387903";
    ]

let test_sparse_disconnected () =
  (* deterministic multi-component check on a 100-qubit device *)
  let edges = List.init 48 (fun i -> (i, i + 1)) in
  let edges = edges @ List.init 49 (fun i -> (50 + i, 51 + i)) in
  let g = Arch.Coupling.make ~name:"two-islands-100" ~n:100 edges in
  Alcotest.(check bool) "not connected" false (Arch.Coupling.connected g);
  Alcotest.(check int) "cross-component raw sentinel"
    Arch.Coupling.unreachable_distance
    (Arch.Coupling.distance_raw g 0 99);
  Alcotest.(check bool) "cross-component distance raises" true
    (try
       ignore (Arch.Coupling.distance g 0 99);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "intra-component" 48 (Arch.Coupling.distance g 0 48);
  Alcotest.(check int) "other island" 49 (Arch.Coupling.distance g 50 99)

(* ---------------------------------------------------------------- devices *)

let test_device_inventory () =
  let check_device c name n edges connected =
    Alcotest.(check string) (name ^ " name") name (Arch.Coupling.name c);
    Alcotest.(check int) (name ^ " qubits") n (Arch.Coupling.n_qubits c);
    Alcotest.(check int)
      (name ^ " edges")
      edges
      (List.length (Arch.Coupling.edges c));
    Alcotest.(check bool) (name ^ " connected") connected (Arch.Coupling.connected c)
  in
  check_device Arch.Devices.ibm_q5 "ibm-q5" 5 6 true;
  check_device Arch.Devices.ibm_q16_melbourne "ibm-q16-melbourne" 16 22 true;
  check_device Arch.Devices.ibm_q20_tokyo "ibm-q20-tokyo" 20 43 true;
  check_device Arch.Devices.enfield_6x6 "enfield-6x6" 36 60 true;
  check_device Arch.Devices.sycamore_54 "google-q54-sycamore" 54 88 true

let test_sycamore_shape () =
  let s = Arch.Devices.sycamore_54 in
  (* a Sycamore-style lattice has maximum degree 4 *)
  for q = 0 to 53 do
    Alcotest.(check bool)
      (Fmt.str "degree of %d <= 4" q)
      true
      (Arch.Coupling.degree s q <= 4)
  done;
  Alcotest.(check bool) "has coords" true (Arch.Coupling.coords s <> None)

let test_tokyo_diagonals () =
  let t = Arch.Devices.ibm_q20_tokyo in
  Alcotest.(check bool) "grid edge" true (Arch.Coupling.adjacent t 0 1);
  Alcotest.(check bool) "column edge" true (Arch.Coupling.adjacent t 0 5);
  Alcotest.(check bool) "diagonal 1-7" true (Arch.Coupling.adjacent t 1 7);
  Alcotest.(check bool) "diagonal 2-6" true (Arch.Coupling.adjacent t 2 6);
  Alcotest.(check bool) "no diagonal 0-6" false (Arch.Coupling.adjacent t 0 6)

let test_heavy_hex () =
  (* the IBM heavy-hex accounting, per code distance: d² data qubits,
     d(d-1) flags, (d²-1)/2 syndromes; 3d² - 2d - 1 couplers *)
  List.iter
    (fun d ->
      let c = Arch.Devices.heavy_hex ~distance:d in
      let n = ((5 * d * d) - (2 * d) - 1) / 2 in
      Alcotest.(check string)
        (Fmt.str "d=%d name" d)
        (Fmt.str "heavy-hex-%d" d)
        (Arch.Coupling.name c);
      Alcotest.(check int) (Fmt.str "d=%d qubits" d) n
        (Arch.Coupling.n_qubits c);
      Alcotest.(check int)
        (Fmt.str "d=%d edges" d)
        ((3 * d * d) - (2 * d) - 1)
        (List.length (Arch.Coupling.edges c));
      Alcotest.(check bool) (Fmt.str "d=%d connected" d) true
        (Arch.Coupling.connected c);
      Alcotest.(check bool) (Fmt.str "d=%d coords" d) true
        (Arch.Coupling.coords c <> None);
      for q = 0 to n - 1 do
        if Arch.Coupling.degree c q > 3 then
          Alcotest.failf "heavy-hex-%d: qubit %d has degree %d > 3" d q
            (Arch.Coupling.degree c q)
      done)
    [ 3; 5; 7; 9; 11; 13 ];
  (* the published large-tier sizes *)
  let size d = Arch.Coupling.n_qubits (Arch.Devices.heavy_hex ~distance:d) in
  Alcotest.(check int) "d=7 is 115" 115 (size 7);
  Alcotest.(check int) "d=9 is 193" 193 (size 9);
  Alcotest.(check int) "d=11 is 291" 291 (size 11);
  Alcotest.(check int) "d=13 is 409" 409 (size 13);
  Alcotest.(check int) "d=19 is 883" 883 (size 19);
  let rejects d =
    try
      ignore (Arch.Devices.heavy_hex ~distance:d);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "even distance rejected" true (rejects 4);
  Alcotest.(check bool) "d=1 rejected" true (rejects 1);
  Alcotest.(check bool) "d=0 rejected" true (rejects 0)

let test_by_name () =
  let is name expect =
    match Arch.Devices.by_name name with
    | Some c -> Alcotest.(check string) name expect (Arch.Coupling.name c)
    | None -> Alcotest.failf "device %s not found" name
  in
  is "melbourne" "ibm-q16-melbourne";
  is "TOKYO" "ibm-q20-tokyo";
  is "6x6" "enfield-6x6";
  is "sycamore" "google-q54-sycamore";
  is "linear-7" "linear-7";
  is "ring-6" "ring-6";
  is "grid-3x4" "grid-3x4";
  is "full-9" "full-9";
  is "heavy-hex-7" "heavy-hex-7";
  is "heavy-hex-13" "heavy-hex-13";
  is "grid-20x20" "grid-20x20";
  Alcotest.(check bool) "unknown" true (Arch.Devices.by_name "nope" = None);
  Alcotest.(check bool) "bad arity" true (Arch.Devices.by_name "grid-3" = None);
  Alcotest.(check bool) "even heavy-hex" true
    (Arch.Devices.by_name "heavy-hex-4" = None);
  Alcotest.(check bool) "tiny heavy-hex" true
    (Arch.Devices.by_name "heavy-hex-1" = None);
  Alcotest.(check bool) "garbled heavy-hex" true
    (Arch.Devices.by_name "heavy-hex-x" = None);
  (* a size is decimal digits, not any spelling [int_of_string] reads *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " refused") true
        (Arch.Devices.by_name name = None))
    [ "linear-0x10"; "ring-1_0"; "linear-+16"; "grid-0b11x3"; "full-0o7" ]

(* Generated devices are memoised: a repeated name (in any spelling of
   its size) is the physically same coupling, presets stay the shared
   values they are, and a sweep of distinct names never holds more than
   the byte budget's worth of distance tables. *)
let test_generated_memo () =
  let get name = Option.get (Arch.Devices.by_name name) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is built once") true
        (get name == get name))
    [ "linear-9"; "ring-12"; "full-6"; "heavy-hex-7"; "grid-4x5" ];
  Alcotest.(check bool) "spellings of one size share it" true
    (get "grid-4x5" == get "GRID-04x005");
  Alcotest.(check bool) "presets are untouched" true
    (get "tokyo" == Arch.Devices.ibm_q20_tokyo);
  let budget = Arch.Devices.generated_budget in
  let within what =
    Alcotest.(check bool) (what ^ ": tables within the budget") true
      (Arch.Devices.generated_bytes () <= budget);
    Alcotest.(check bool) (what ^ ": devices within the cap") true
      (Arch.Devices.generated_length () <= Arch.Devices.generated_max)
  in
  (* 8 MB each: two fit, a third evicts the least recently used *)
  let big = [ "linear-1024"; "grid-32x32"; "ring-1024"; "grid-16x64" ] in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " table") (8 * 1024 * 1024)
        (Arch.Coupling.dist_bytes (get name));
      within name)
    big;
  let last = get "grid-16x64" in
  Alcotest.(check bool) "the newest stays" true (get "grid-16x64" == last);
  (* many small devices, and zero-qubit grids that hold no table *)
  for k = 3 to 300 do
    ignore (get (Printf.sprintf "ring-%d" k));
    ignore (get (Printf.sprintf "grid-0x%d" k))
  done;
  within "sweep"

let test_ring_grid () =
  let r = Arch.Devices.ring 6 in
  Alcotest.(check int) "ring wrap distance" 1 (Arch.Coupling.distance r 0 5);
  Alcotest.(check int) "ring opposite" 3 (Arch.Coupling.distance r 0 3);
  let g = Arch.Devices.grid ~rows:3 ~cols:3 in
  Alcotest.(check int) "grid corner to corner" 4 (Arch.Coupling.distance g 0 8);
  let f = Arch.Devices.fully_connected 5 in
  Alcotest.(check int) "full edges" 10 (List.length (Arch.Coupling.edges f))

(* -------------------------------------------------------------- durations *)

let test_durations () =
  let d = Arch.Durations.superconducting in
  Alcotest.(check int) "1q" 1 (Arch.Durations.of_gate d (Qc.Gate.h 0));
  Alcotest.(check int) "2q" 2 (Arch.Durations.of_gate d (Qc.Gate.cx 0 1));
  Alcotest.(check int) "swap" 6 (Arch.Durations.of_gate d (Qc.Gate.swap 0 1));
  Alcotest.(check int) "cz" 2 (Arch.Durations.of_gate d (Qc.Gate.cz 0 1));
  Alcotest.(check int) "barrier free" 0
    (Arch.Durations.of_gate d (Qc.Gate.barrier [ 0 ]));
  Alcotest.(check int) "measure" 5
    (Arch.Durations.of_gate d (Qc.Gate.measure 0 0));
  Alcotest.(check int) "ion 2q" 12
    (Arch.Durations.of_gate Arch.Durations.ion_trap (Qc.Gate.xx 0.1 0 1));
  Alcotest.(check bool) "2q slower than 1q on ion and sc" true
    (Arch.Durations.two_qubit Arch.Durations.ion_trap
     > Arch.Durations.one_qubit Arch.Durations.ion_trap
    && Arch.Durations.two_qubit d > Arch.Durations.one_qubit d);
  (* Table I: neutral atoms may run 2q gates faster than 1q *)
  Alcotest.(check bool) "neutral atom inversion" true
    (Arch.Durations.two_qubit Arch.Durations.neutral_atom
     < Arch.Durations.one_qubit Arch.Durations.neutral_atom);
  Alcotest.(check bool) "nonpositive rejected" true
    (try
       ignore
         (Arch.Durations.make ~name:"bad" ~one_qubit:0 ~two_qubit:1 ~swap:1
            ~measure:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------ calibration *)

let test_calibration () =
  let c = Arch.Calibration.superconducting in
  Alcotest.(check (float 1e-12)) "1q" 0.997
    (Arch.Calibration.gate_fidelity c (Qc.Gate.h 0));
  Alcotest.(check (float 1e-12)) "2q" 0.965
    (Arch.Calibration.gate_fidelity c (Qc.Gate.cx 0 1));
  Alcotest.(check (float 1e-9)) "swap = 3 cx" (0.965 ** 3.)
    (Arch.Calibration.gate_fidelity c (Qc.Gate.swap 0 1));
  Alcotest.(check (float 1e-12)) "barrier free" 1.
    (Arch.Calibration.gate_fidelity c (Qc.Gate.barrier [ 0 ]));
  Alcotest.(check (float 1e-12)) "readout" 0.93
    (Arch.Calibration.gate_fidelity c (Qc.Gate.measure 0 0));
  (* Table I: neutral atoms have superb 1q but poor 2q fidelity *)
  let na = Arch.Calibration.neutral_atom in
  Alcotest.(check bool) "neutral-atom contrast" true
    (Arch.Calibration.one_qubit_fidelity na > 0.999
    && Arch.Calibration.two_qubit_fidelity na < 0.9);
  let rejects f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "fidelity > 1 rejected" true
    (rejects (fun () ->
         Arch.Calibration.make ~name:"bad" ~one_qubit_fidelity:1.2
           ~two_qubit_fidelity:0.9 ~readout_fidelity:0.9 ~t1_cycles:10.
           ~t2_cycles:10.));
  Alcotest.(check bool) "t2 > 2 t1 rejected" true
    (rejects (fun () ->
         Arch.Calibration.make ~name:"bad" ~one_qubit_fidelity:0.99
           ~two_qubit_fidelity:0.9 ~readout_fidelity:0.9 ~t1_cycles:10.
           ~t2_cycles:30.))

(* ----------------------------------------------------------------- layout *)

let test_layout_identity () =
  let l = Arch.Layout.identity ~n_logical:3 ~n_physical:5 in
  Alcotest.(check int) "phys of 2" 2 (Arch.Layout.phys_of_log l 2);
  Alcotest.(check (option int)) "log of 1" (Some 1) (Arch.Layout.log_of_phys l 1);
  Alcotest.(check (option int)) "log of 4" None (Arch.Layout.log_of_phys l 4);
  Alcotest.(check bool) "too many logical" true
    (try
       ignore (Arch.Layout.identity ~n_logical:6 ~n_physical:5);
       false
     with Invalid_argument _ -> true)

let test_layout_of_array () =
  let l = Arch.Layout.of_array ~n_physical:4 [| 3; 1 |] in
  Alcotest.(check int) "phys of 0" 3 (Arch.Layout.phys_of_log l 0);
  Alcotest.(check (option int)) "log of 3" (Some 0) (Arch.Layout.log_of_phys l 3);
  Alcotest.(check bool) "non-injective" true
    (try
       ignore (Arch.Layout.of_array ~n_physical:4 [| 1; 1 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Arch.Layout.of_array ~n_physical:2 [| 2 |]);
       false
     with Invalid_argument _ -> true)

let test_layout_swap () =
  let l = Arch.Layout.identity ~n_logical:2 ~n_physical:4 in
  (* swap an occupied with a free physical qubit *)
  let l1 = Arch.Layout.swap_physical l 1 3 in
  Alcotest.(check int) "logical 1 moved" 3 (Arch.Layout.phys_of_log l1 1);
  Alcotest.(check (option int)) "phys 1 freed" None (Arch.Layout.log_of_phys l1 1);
  (* double swap is identity *)
  let l2 = Arch.Layout.swap_physical l1 1 3 in
  Alcotest.(check bool) "involution" true (Arch.Layout.equal l l2);
  (* original layout untouched (pure) *)
  Alcotest.(check int) "pure" 1 (Arch.Layout.phys_of_log l 1)

let prop_layout_swap_consistent =
  QCheck.Test.make ~count:200 ~name:"layout stays a partial bijection"
    QCheck.(pair (pair small_nat small_nat) (list (pair small_nat small_nat)))
    (fun ((a, b), swaps) ->
      let n_logical = 1 + (a mod 6) in
      let n_physical = n_logical + (b mod 6) in
      let l =
        List.fold_left
          (fun l (p1, p2) ->
            Arch.Layout.swap_physical l (p1 mod n_physical) (p2 mod n_physical))
          (Arch.Layout.identity ~n_logical ~n_physical)
          swaps
      in
      let ok = ref true in
      for lg = 0 to n_logical - 1 do
        match Arch.Layout.log_of_phys l (Arch.Layout.phys_of_log l lg) with
        | Some lg' -> if lg <> lg' then ok := false
        | None -> ok := false
      done;
      !ok)

let test_layout_random () =
  let rng = Random.State.make [| 1; 2; 3 |] in
  let l = Arch.Layout.random rng ~n_logical:5 ~n_physical:9 in
  let seen = Hashtbl.create 8 in
  for lg = 0 to 4 do
    let p = Arch.Layout.phys_of_log l lg in
    Alcotest.(check bool) "in range" true (p >= 0 && p < 9);
    Alcotest.(check bool) "fresh" false (Hashtbl.mem seen p);
    Hashtbl.replace seen p ()
  done

(* ------------------------------------------------------------------ maqam *)

let test_maqam () =
  let m =
    Arch.Maqam.make ~coupling:(Arch.Devices.linear 4)
      ~durations:Arch.Durations.superconducting
  in
  Alcotest.(check int) "qubits" 4 (Arch.Maqam.n_qubits m);
  Alcotest.(check bool) "adjacent" true (Arch.Maqam.adjacent m 1 2);
  Alcotest.(check int) "distance" 3 (Arch.Maqam.distance m 0 3);
  Alcotest.(check int) "duration" 6 (Arch.Maqam.duration m (Qc.Gate.swap 0 1));
  let layout = Arch.Layout.identity ~n_logical:3 ~n_physical:4 in
  Alcotest.(check bool) "fits adjacent 2q" true
    (Arch.Maqam.fits m layout (Qc.Gate.cx 1 2));
  Alcotest.(check bool) "does not fit distant 2q" false
    (Arch.Maqam.fits m layout (Qc.Gate.cx 0 2));
  Alcotest.(check bool) "1q always fits" true
    (Arch.Maqam.fits m layout (Qc.Gate.h 0))

let () =
  Alcotest.run "arch"
    [
      ( "coupling",
        [
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "path distances" `Quick test_path_distances;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "bounds checks" `Quick test_bounds_checks;
          Alcotest.test_case "coords" `Quick test_coords;
          QCheck_alcotest.to_alcotest prop_distance_metric;
        ] );
      ( "provider",
        [
          Alcotest.test_case "device size bound" `Quick test_size_bound;
          Alcotest.test_case "sparse disconnected" `Quick
            test_sparse_disconnected;
          QCheck_alcotest.to_alcotest prop_table_equals_floyd_warshall;
        ] );
      ( "devices",
        [
          Alcotest.test_case "inventory" `Quick test_device_inventory;
          Alcotest.test_case "sycamore shape" `Quick test_sycamore_shape;
          Alcotest.test_case "tokyo diagonals" `Quick test_tokyo_diagonals;
          Alcotest.test_case "heavy-hex" `Quick test_heavy_hex;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "generated devices memoised" `Quick
            test_generated_memo;
          Alcotest.test_case "ring/grid/full" `Quick test_ring_grid;
        ] );
      ("durations", [ Alcotest.test_case "profiles" `Quick test_durations ]);
      ("calibration", [ Alcotest.test_case "presets" `Quick test_calibration ]);
      ( "layout",
        [
          Alcotest.test_case "identity" `Quick test_layout_identity;
          Alcotest.test_case "of_array" `Quick test_layout_of_array;
          Alcotest.test_case "swap" `Quick test_layout_swap;
          Alcotest.test_case "random" `Quick test_layout_random;
          QCheck_alcotest.to_alcotest prop_layout_swap_consistent;
        ] );
      ("maqam", [ Alcotest.test_case "facade" `Quick test_maqam ]);
    ]
