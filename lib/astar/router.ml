type config = { max_expansions : int }

let default_config = { max_expansions = 20_000 }

exception Stuck of string

(* minimal binary min-heap on (priority, payload) *)
module Heap = struct
  type 'a t = { mutable data : (int * 'a) array; mutable size : int }

  let create () = { data = Array.make 64 (0, Obj.magic 0); size = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h prio v =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) h.data.(0) in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- (prio, v);
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then
          smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then
          smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done;
      Some top
    end
end

let layer_pairs layer =
  List.filter_map
    (fun g ->
      match g with
      | Qc.Gate.Two (_, q1, q2) -> Some (q1, q2)
      | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> None)
    layer

let excess_distance maqam layout pairs =
  List.fold_left
    (fun acc (q1, q2) ->
      acc
      + Arch.Maqam.distance maqam
          (Arch.Layout.phys_of_log layout q1)
          (Arch.Layout.phys_of_log layout q2)
      - 1)
    0 pairs

(* candidate SWAPs: coupling edges incident to a host of an unsatisfied
   pair *)
let candidate_edges maqam layout pairs =
  let coupling = Arch.Maqam.coupling maqam in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (q1, q2) ->
      let p1 = Arch.Layout.phys_of_log layout q1 in
      let p2 = Arch.Layout.phys_of_log layout q2 in
      if not (Arch.Coupling.adjacent coupling p1 p2) then
        List.iter
          (fun p ->
            List.iter
              (fun p' ->
                Hashtbl.replace seen (min p p', max p p') ())
              (Arch.Coupling.neighbors coupling p))
          [ p1; p2 ])
    pairs;
  Hashtbl.fold (fun e () acc -> e :: acc) seen [] |> List.sort Stdlib.compare

let layout_key layout =
  let arr = Arch.Layout.to_array layout in
  String.concat "," (Array.to_list (Array.map string_of_int arr))

(* A*: nodes carry the layout and the reversed swap list that produced it. *)
let astar ~config maqam layout pairs =
  let h l = (excess_distance maqam l pairs + 1) / 2 in
  let heap = Heap.create () in
  let visited : (string, int) Hashtbl.t = Hashtbl.create 256 in
  Heap.push heap (h layout) (layout, 0, []);
  let expansions = ref 0 in
  let result = ref None in
  while !result = None && !expansions < config.max_expansions do
    match Heap.pop heap with
    | None -> expansions := config.max_expansions (* exhausted: fallback *)
    | Some (_, (l, g, swaps)) ->
      if excess_distance maqam l pairs = 0 then result := Some (List.rev swaps)
      else begin
        incr expansions;
        let key = layout_key l in
        let dominated =
          match Hashtbl.find_opt visited key with
          | Some g' -> g' <= g
          | None -> false
        in
        if not dominated then begin
          Hashtbl.replace visited key g;
          List.iter
            (fun (p1, p2) ->
              let l' = Arch.Layout.swap_physical l p1 p2 in
              let g' = g + 1 in
              Heap.push heap (g' + h l') (l', g', (p1, p2) :: swaps))
            (candidate_edges maqam l pairs)
        end
      end
  done;
  !result

(* fallback: greedily apply the best distance-reducing SWAP *)
let greedy_step maqam layout pairs =
  let score (p1, p2) =
    excess_distance maqam (Arch.Layout.swap_physical layout p1 p2) pairs
  in
  match candidate_edges maqam layout pairs with
  | [] -> raise (Stuck "A*: no SWAP candidate — disconnected device?")
  | first :: rest ->
    List.fold_left
      (fun (bs, be) e ->
        let s = score e in
        if s < bs then (s, e) else (bs, be))
      (score first, first) rest

let solve_layer ~config maqam layout pairs =
  match astar ~config maqam layout pairs with
  | Some swaps -> swaps
  | None ->
    (* greedy fallback, bounded *)
    let rec go layout acc budget =
      if excess_distance maqam layout pairs = 0 then List.rev acc
      else if budget = 0 then
        raise (Stuck "A*: greedy fallback exhausted its budget")
      else begin
        let _, (p1, p2) = greedy_step maqam layout pairs in
        go (Arch.Layout.swap_physical layout p1 p2) ((p1, p2) :: acc)
          (budget - 1)
      end
    in
    go layout [] (100 * (List.length pairs + 1))

let timeline ?(config = default_config) ~maqam ~initial circuit =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  if n_logical > n_physical then
    invalid_arg "Astar.Router.run: circuit wider than device";
  if
    Arch.Layout.n_logical initial <> n_logical
    || Arch.Layout.n_physical initial <> n_physical
  then invalid_arg "Astar.Router.run: layout size mismatch";
  let layout = ref initial in
  let out_rev = ref [] in
  List.iter
    (fun layer ->
      let pairs = layer_pairs layer in
      let swaps = solve_layer ~config maqam !layout pairs in
      List.iter
        (fun (p1, p2) ->
          out_rev := (Qc.Gate.swap p1 p2, true) :: !out_rev;
          layout := Arch.Layout.swap_physical !layout p1 p2)
        swaps;
      List.iter
        (fun g ->
          out_rev :=
            (Qc.Gate.remap (Arch.Layout.phys_of_log !layout) g, false)
            :: !out_rev)
        layer)
    (Layers.partition circuit);
  Schedule.Asap.timeline ~durations:(Arch.Maqam.durations maqam) ~n_physical
    ~initial ~final:!layout ~n_logical (List.rev !out_rev)

let run ?config ~maqam ~initial circuit =
  Schedule.Timeline.to_routed (timeline ?config ~maqam ~initial circuit)
