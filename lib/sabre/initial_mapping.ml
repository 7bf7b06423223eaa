let reverse_traversal ?initial ?(iterations = 1)
    ?(config = Router.default_config) ~maqam circuit =
  if iterations < 1 then
    invalid_arg
      (Printf.sprintf
         "Initial_mapping.reverse_traversal: iterations = %d < 1" iterations);
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  let rec go layout k =
    if k = 0 then layout
    else
      let after_fwd = Router.final_layout ~config ~maqam ~initial:layout circuit in
      let after_bwd =
        Router.final_layout ~config ~reverse:true ~maqam ~initial:after_fwd
          circuit
      in
      go after_bwd (k - 1)
  in
  let start =
    match initial with
    | Some l ->
      if
        Arch.Layout.n_logical l <> n_logical
        || Arch.Layout.n_physical l <> n_physical
      then invalid_arg "Initial_mapping.reverse_traversal: layout size mismatch";
      l
    | None -> Arch.Layout.identity ~n_logical ~n_physical
  in
  go start iterations
