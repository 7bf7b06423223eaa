let linear n =
  let coords = Array.init n (fun i -> (float_of_int i, 0.)) in
  Coupling.make ~coords
    ~name:(Fmt.str "linear-%d" n)
    ~n
    (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let ring n =
  if n < 3 then invalid_arg "Devices.ring: need at least 3 qubits";
  let coords =
    Array.init n (fun i ->
        let a = 2. *. Float.pi *. float_of_int i /. float_of_int n in
        (cos a, sin a))
  in
  Coupling.make ~coords
    ~name:(Fmt.str "ring-%d" n)
    ~n
    (List.init n (fun i -> (i, (i + 1) mod n)))

let grid ~rows ~cols =
  let n = rows * cols in
  let idx r c = (r * cols) + c in
  let coords =
    Array.init n (fun i ->
        (float_of_int (i mod cols), float_of_int (i / cols)))
  in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
    done
  done;
  Coupling.make ~coords ~name:(Fmt.str "grid-%dx%d" rows cols) ~n !edges

let fully_connected n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Coupling.make ~name:(Fmt.str "full-%d" n) ~n !edges

let ibm_q5 =
  Coupling.make ~name:"ibm-q5" ~n:5
    [ (0, 1); (0, 2); (1, 2); (2, 3); (2, 4); (3, 4) ]

(* IBM Q16 Melbourne at its nominal 16 qubits: the 2×8 ladder (two rows of
   eight with vertical rungs). The paper runs every non-36-qubit benchmark on
   "Q16", so the nominal ladder — not the 14-usable-qubit calibration map —
   is the topology it assumes. *)
let ibm_q16_melbourne =
  let coords =
    Array.init 16 (fun i -> (float_of_int (i mod 8), float_of_int (i / 8)))
  in
  let rows =
    [
      (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7);
      (8, 9); (9, 10); (10, 11); (11, 12); (12, 13); (13, 14); (14, 15);
    ]
  in
  let rungs = List.init 8 (fun i -> (i, i + 8)) in
  Coupling.make ~coords ~name:"ibm-q16-melbourne" ~n:16 (rows @ rungs)

(* IBM Q20 Tokyo: 4×5 grid plus the published diagonal couplers (as used by
   SABRE, ASPLOS'19). *)
let ibm_q20_tokyo =
  let coords =
    Array.init 20 (fun i -> (float_of_int (i mod 5), float_of_int (i / 5)))
  in
  let rows =
    [
      (0, 1); (1, 2); (2, 3); (3, 4);
      (5, 6); (6, 7); (7, 8); (8, 9);
      (10, 11); (11, 12); (12, 13); (13, 14);
      (15, 16); (16, 17); (17, 18); (18, 19);
    ]
  in
  let cols =
    [
      (0, 5); (5, 10); (10, 15);
      (1, 6); (6, 11); (11, 16);
      (2, 7); (7, 12); (12, 17);
      (3, 8); (8, 13); (13, 18);
      (4, 9); (9, 14); (14, 19);
    ]
  in
  let diagonals =
    [
      (1, 7); (2, 6); (3, 9); (4, 8);
      (5, 11); (6, 10); (8, 12); (7, 13);
      (11, 17); (12, 16); (13, 19); (14, 18);
    ]
  in
  Coupling.make ~coords ~name:"ibm-q20-tokyo" ~n:20 (rows @ cols @ diagonals)

let enfield_6x6 =
  let g = grid ~rows:6 ~cols:6 in
  Coupling.make
    ?coords:(Coupling.coords g)
    ~name:"enfield-6x6" ~n:36 (Coupling.edges g)

(* Sycamore-style diagonal square lattice: 9 rows of 6, odd rows offset by
   half a cell; qubit (r,c) couples to the one or two qubits diagonally below
   it. Degree ≤ 4, 54 qubits, 88 couplers. *)
let sycamore_54 =
  let rows = 9 and cols = 6 in
  let n = rows * cols in
  let idx r c = (r * cols) + c in
  let coords =
    Array.init n (fun i ->
        let r = i / cols and c = i mod cols in
        (float_of_int c +. (0.5 *. float_of_int (r mod 2)), float_of_int r))
  in
  let edges = ref [] in
  for r = 0 to rows - 2 do
    for c = 0 to cols - 1 do
      (* below-left / below-right targets depend on the row parity *)
      let c_left = if r mod 2 = 0 then c - 1 else c in
      let c_right = if r mod 2 = 0 then c else c + 1 in
      if c_left >= 0 then edges := (idx r c, idx (r + 1) c_left) :: !edges;
      if c_right < cols then edges := (idx r c, idx (r + 1) c_right) :: !edges
    done
  done;
  Coupling.make ~coords ~name:"google-q54-sycamore" ~n !edges

(* IBM heavy-hex lattice for code distance d (odd, >= 3): a d×d data-qubit
   grid whose horizontal links are subdivided by d(d-1) flag qubits and
   whose vertical links are subdivided by (d²-1)/2 syndrome qubits —
   n = (5d² - 2d - 1)/2 qubits and 3d² - 2d - 1 couplers, max degree 3.
   Vertical connectors alternate columns per row pair (even pairs on even
   columns, odd pairs on odd columns plus the right boundary): that
   placement lands exactly on the code's syndrome count while keeping
   every data qubit at degree <= 3 and the lattice connected. d = 7, 9,
   11, 13 give the 115-, 193-, 291- and 409-qubit devices of the
   large-scale tier. *)
let heavy_hex ~distance =
  let d = distance in
  if d < 3 || d mod 2 = 0 then
    invalid_arg "Devices.heavy_hex: distance must be odd and >= 3";
  let n_data = d * d in
  let n_flag = d * (d - 1) in
  let n = ((5 * d * d) - (2 * d) - 1) / 2 in
  let data i j = (i * d) + j in
  let flag i j = n_data + (i * (d - 1)) + j in
  let coords = Array.make n (0., 0.) in
  let edges = ref [] in
  (* horizontal data–flag–data chains per row *)
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      coords.(data i j) <- (float_of_int (2 * j), float_of_int (2 * i))
    done;
    for j = 0 to d - 2 do
      coords.(flag i j) <- (float_of_int ((2 * j) + 1), float_of_int (2 * i));
      edges := (data i j, flag i j) :: (flag i j, data i (j + 1)) :: !edges
    done
  done;
  (* vertical data–syndrome–data bridges per row pair *)
  let cols i =
    if i mod 2 = 0 then List.init ((d + 1) / 2) (fun k -> 2 * k)
    else List.init ((d - 1) / 2) (fun k -> (2 * k) + 1) @ [ d - 1 ]
  in
  let syn = ref (n_data + n_flag) in
  for i = 0 to d - 2 do
    List.iter
      (fun j ->
        coords.(!syn) <- (float_of_int (2 * j), float_of_int ((2 * i) + 1));
        edges := (data i j, !syn) :: (!syn, data (i + 1) j) :: !edges;
        incr syn)
      (cols i)
  done;
  assert (!syn = n);
  Coupling.make ~coords ~name:(Fmt.str "heavy-hex-%d" d) ~n !edges

let evaluation_devices =
  [ ibm_q16_melbourne; enfield_6x6; ibm_q20_tokyo; sycamore_54 ]

(* Generated devices are memoised by canonical name: [by_name] runs on
   every daemon request the request memo does not answer, and building a
   device fills its n² distance table (grid-32x32: 8 MB, ~21 ms). The
   tables held stay within [generated_budget] bytes and the entries
   within [generated_max] (zero-qubit grids have empty tables), least
   recently used first out. Named presets are built once at start-up
   and are not in the table. *)
let generated_budget = 16 * 1024 * 1024
let generated_max = 64

type entry = { coupling : Coupling.t; mutable used : int }

let generated : (string, entry) Hashtbl.t = Hashtbl.create 16
let generated_lock = Mutex.create ()
let held_bytes = ref 0
let clock = ref 0

let evict_lru () =
  let lru =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, u) when u <= e.used -> acc
        | _ -> Some (k, e.used))
      generated None
  in
  Option.iter
    (fun (k, _) ->
      held_bytes :=
        !held_bytes - Coupling.dist_bytes (Hashtbl.find generated k).coupling;
      Hashtbl.remove generated k)
    lru

let memoised key build =
  Mutex.protect generated_lock (fun () ->
      incr clock;
      match Hashtbl.find_opt generated key with
      | Some e ->
        e.used <- !clock;
        e.coupling
      | None ->
        let coupling = build () in
        let bytes = Coupling.dist_bytes coupling in
        if bytes <= generated_budget then begin
          (* terminates: an emptied table holds no bytes and no device *)
          while
            Hashtbl.length generated >= generated_max
            || !held_bytes + bytes > generated_budget
          do
            evict_lru ()
          done;
          Hashtbl.replace generated key { coupling; used = !clock };
          held_bytes := !held_bytes + bytes
        end;
        coupling)

let generated_bytes () = Mutex.protect generated_lock (fun () -> !held_bytes)

let generated_length () =
  Mutex.protect generated_lock (fun () -> Hashtbl.length generated)

(* A size is one or more ASCII digits: [int_of_string] alone would also
   read OCaml's spellings ("0x10", "1_0", "+16", "0b11", "0o7"). *)
let decimal s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then
    int_of_string_opt s
  else None

let by_name s =
  let s = String.lowercase_ascii s in
  let prefixed p = String.length s > String.length p
                   && String.sub s 0 (String.length p) = p in
  let suffix p = String.sub s (String.length p)
      (String.length s - String.length p) in
  match s with
  | "melbourne" | "q16" | "ibm-q16-melbourne" -> Some ibm_q16_melbourne
  | "tokyo" | "q20" | "ibm-q20-tokyo" -> Some ibm_q20_tokyo
  | "6x6" | "enfield" | "enfield-6x6" -> Some enfield_6x6
  | "sycamore" | "q54" | "google-q54-sycamore" -> Some sycamore_54
  | "q5" | "ibm-q5" -> Some ibm_q5
  | _ ->
    (* a size the generator or [Coupling.make]'s bound refuses is no
       device, and is refused before anything is built. The parameter is
       capped at [max_qubits] before [fits] does any arithmetic on it, so
       nothing overflows. *)
    let sized ~min ~fits make p =
      match decimal (suffix p) with
      | Some k when k >= min && k <= Coupling.max_qubits && fits k ->
        Some (memoised (p ^ string_of_int k) (fun () -> make k))
      | Some _ | None -> None
    in
    let any _ = true in
    if prefixed "linear-" then sized ~min:0 ~fits:any linear "linear-"
    else if prefixed "ring-" then sized ~min:3 ~fits:any ring "ring-"
    else if prefixed "full-" then
      (* n(n-1)/2 couplers: the edge bound stops complete graphs first *)
      sized ~min:0
        ~fits:(fun n -> n * (n - 1) / 2 <= 8 * Coupling.max_qubits)
        fully_connected "full-"
    else if prefixed "heavy-hex-" then
      sized ~min:3
        ~fits:(fun d ->
          d mod 2 = 1 && ((5 * d * d) - (2 * d) - 1) / 2 <= Coupling.max_qubits)
        (fun d -> heavy_hex ~distance:d)
        "heavy-hex-"
    else if prefixed "grid-" then
      match String.split_on_char 'x' (suffix "grid-") with
      | [ r; c ] -> (
        match (decimal r, decimal c) with
        | Some rows, Some cols
          when rows >= 0 && cols >= 0
               && (rows = 0 || cols <= Coupling.max_qubits / rows) ->
          Some
            (memoised (Printf.sprintf "grid-%dx%d" rows cols) (fun () ->
                 grid ~rows ~cols))
        | Some _, Some _ | None, _ | _, None -> None)
      | _ -> None
    else None
