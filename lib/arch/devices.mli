(** The device zoo: coupling graphs for the NISQ machines the paper
    evaluates on (§V-b), plus generic families used by tests and examples.

    Devices carry planar coordinates where the physical layout is planar
    (grids, ladders, Sycamore), enabling CODAR's [Hfine] tiebreak. *)

val linear : int -> Coupling.t
(** Path graph [0 - 1 - … - (n-1)]. *)

val ring : int -> Coupling.t

val grid : rows:int -> cols:int -> Coupling.t
(** 2-D lattice with row-major numbering. *)

val fully_connected : int -> Coupling.t
(** All-to-all connectivity (ion trap); routing never inserts SWAPs. *)

val ibm_q5 : Coupling.t
(** 5-qubit "bow-tie" (IBM QX2-style). *)

val ibm_q16_melbourne : Coupling.t
(** IBM Q16 Melbourne at its nominal 16 qubits: a 2×8 ladder. (The real
    device's calibration map exposed only 14 usable qubits, but the paper
    runs every ≤16-qubit benchmark on "Q16", so the nominal ladder is the
    topology it assumes.) *)

val ibm_q20_tokyo : Coupling.t
(** 4×5 grid plus the published diagonal couplers (the SABRE paper's
    device). *)

val enfield_6x6 : Coupling.t
(** The 6×6 grid model proposed by Enfield. *)

val sycamore_54 : Coupling.t
(** Google's 54-qubit Sycamore: 9 rows × 6 columns on a diagonal square
    lattice, each qubit coupled to up to four diagonal neighbours. *)

val heavy_hex : distance:int -> Coupling.t
(** IBM heavy-hex lattice for code distance [d] (odd, >= 3):
    [n = (5d² - 2d - 1)/2] qubits (d² data + d(d-1) flags + (d²-1)/2
    syndromes), [3d² - 2d - 1] couplers, maximum degree 3, connected,
    with planar coordinates. [d = 7, 9, 11, 13] give the 115-, 193-,
    291- and 409-qubit devices of the large-scale tier; [d = 19] (883
    qubits) is the largest within {!Coupling.max_qubits}. Raises
    [Invalid_argument] on an even or too-small distance, or past the
    bound. *)

val evaluation_devices : Coupling.t list
(** The four architectures of Fig. 8: IBM Q16 Melbourne, Enfield 6×6,
    IBM Q20 Tokyo and Google Q54 Sycamore, in the paper's order. *)

val by_name : string -> Coupling.t option
(** Lookup for the CLI: ["melbourne"], ["tokyo"], ["6x6"] / ["enfield"],
    ["sycamore"], ["q5"], ["linear-<n>"], ["ring-<n>"], ["grid-<r>x<c>"],
    ["full-<n>"], ["heavy-hex-<d>"] (d odd, >= 3), each size written in
    decimal digits only (["linear-0x10"] is no name). Malformed names, sizes
    a generator refuses (negative sizes, rings under 3 qubits, even
    heavy-hex distances) and devices past {!Coupling.make}'s bound (more
    than {!Coupling.max_qubits} qubits or [8 * max_qubits] couplers:
    [full-<n>] stops at 128) are [None], answered before anything is
    built. The CLI answers [None] with a command-line error (exit 124)
    and the daemon with [bad_request].

    A generated name ([linear-], [ring-], [full-], [heavy-hex-],
    [grid-]) is memoised by its canonical name: asking again returns the
    physically same coupling, without rebuilding its distance table. The
    tables held stay within {!generated_budget} bytes and the devices
    within {!generated_max}, least recently used evicted first. *)

val generated_budget : int
(** Bytes of distance tables ({!Coupling.dist_bytes}) the memo of
    generated devices may hold together: 16 MiB, two of the largest
    devices. *)

val generated_max : int
(** Generated devices the memo may hold (64), whatever their size. *)

val generated_bytes : unit -> int
(** Bytes of distance tables the memo holds now. *)

val generated_length : unit -> int
(** Generated devices the memo holds now. *)
