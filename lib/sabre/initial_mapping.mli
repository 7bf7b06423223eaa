(** SABRE's reverse-traversal initial mapping (ASPLOS 2019, §V.B).

    Routing the circuit forward from a trivial layout yields a final layout
    that reflects where the early gates {e want} their qubits; routing the
    {e reversed} circuit from that layout propagates the information back to
    the start. CODAR's evaluation uses "the same method as SABRE to create
    the initial mapping for the benchmarks" (paper §V-A), so both routers are
    fed the layout computed here. *)

val reverse_traversal :
  ?initial:Arch.Layout.t ->
  ?iterations:int ->
  ?config:Router.config ->
  maqam:Arch.Maqam.t ->
  Qc.Circuit.t ->
  Arch.Layout.t
(** [reverse_traversal ~maqam circuit] starts from [initial] (default: the
    identity layout) and performs [iterations] (default 1) forward+backward
    passes, returning the layout to start the real forward routing from.

    [initial] is what makes SABRE-style random-restart portfolios work: seed
    each restart with a different random layout and let the traversal refine
    it ({!Codar.Portfolio} wires this up). Raises [Invalid_argument] when
    [iterations < 1] or when [initial]'s dimensions disagree with the
    circuit or device. *)
