(** Per-domain working arrays for the routers.

    CODAR ([Codar.Remapper]) and SABRE ([Sabre.Router]) route in flat
    arrays — per gate, per qubit, per coupling edge — that they keep in
    one set per domain and reuse across routes, so once a domain has
    routed a circuit at least as large, a route allocates nothing
    proportional to its circuit ([serve -j N] and [batch -j N] route in
    several domains at once; a minor collection stops every domain). A
    router grows its arrays on demand and resets them by fills or
    stamps; this module lends the sets out.

    {!use} lends the calling domain's set to one route. A second
    systhread of the same domain that routes meanwhile finds the set busy
    and works on a fresh one, dropped after its route. On release, under
    [Fun.protect] so a raising route releases too, the set is cleared —
    a released set holds no gate, event or layout of the route — and a
    set grown past {!cap_words} is dropped for a fresh, empty one, so one
    huge circuit does not pin its arrays for the domain's lifetime. *)

type 'a t
(** One router's per-domain sets of type ['a]. *)

val cap_words : int
(** The largest set kept for the next route: [2{^21}] words (16 MB on a
    64-bit host). Both routers' sets for the largest circuits the
    benchmark workloads route (30,000 gates) stay below it. A constant,
    not an option. *)

val make :
  create:(unit -> 'a) -> words:('a -> int) -> clear:('a -> unit) -> 'a t
(** [make ~create ~words ~clear]: [create ()] is an empty set, [words s]
    the words its arrays hold, and [clear s] drops what [s] references of
    the route that just used it. Call once, at module initialisation. *)

val use : 'a t -> ('a -> 'b) -> 'b
(** [use t f] runs [f] on the calling domain's set, or on a fresh one
    when another systhread of the domain holds it, then releases it as
    above — also when [f] raises. [f] must not call [use t] again. *)
