(* In-memory spans for the traced mode. Each span is one public call into
   a layer, timed from outside by the benchmark: name, start, end, parent
   span, request id, and the words the call allocated. Spans stay in
   memory and are written out when the run ends. With tracing off,
   [with_] is a flag test and a direct call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id, -1 outside any request *)
  start_ns : int64;
  end_ns : int64;
  words : float;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let with_ ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Measure.alloc_words () in
    let t0 = Measure.now_ns () in
    let finish () =
      let end_ns = Measure.now_ns () in
      let words = Measure.alloc_words () -. w0 in
      stack := List.tl !stack;
      spans := { id; name; parent; req; start_ns = t0; end_ns; words } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let duration_s s = Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e9

let dump path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        {|{"id":%d,"name":"%s","parent":%d,"req":%d,"start_ns":%Ld,"end_ns":%Ld,"words":%.0f}|}
        s.id s.name s.parent s.req s.start_ns s.end_ns s.words;
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* Per span name: calls, busy time, self time (busy minus the time its
   child spans cover) and words allocated (self words likewise). *)
type layer = {
  calls : int;
  busy_s : float;
  self_s : float;
  words : float;
  self_words : float;
}

let layers () =
  let child_s = Hashtbl.create 256 and child_w = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value (Hashtbl.find_opt tbl s.parent) ~default:0.)
        in
        add child_s (duration_s s);
        add child_w s.words
      end)
    !spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = duration_s s in
      let cs = Option.value (Hashtbl.find_opt child_s s.id) ~default:0. in
      let cw = Option.value (Hashtbl.find_opt child_w s.id) ~default:0. in
      let prev =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:
            { calls = 0; busy_s = 0.; self_s = 0.; words = 0.; self_words = 0. }
      in
      Hashtbl.replace tbl s.name
        {
          calls = prev.calls + 1;
          busy_s = prev.busy_s +. d;
          self_s = prev.self_s +. (d -. cs);
          words = prev.words +. s.words;
          self_words = prev.self_words +. (s.words -. cw);
        })
    !spans;
  tbl

let layer tbl name =
  Option.value (Hashtbl.find_opt tbl name)
    ~default:{ calls = 0; busy_s = 0.; self_s = 0.; words = 0.; self_words = 0. }

let print_layers tbl =
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b.busy_s a.busy_s)
  in
  Fmt.pr "%-22s %9s %12s %12s %12s@." "span" "calls" "busy_s" "self_s"
    "Mwords";
  List.iter
    (fun (k, l) ->
      Fmt.pr "%-22s %9d %12.6f %12.6f %12.3f@." k l.calls l.busy_s l.self_s
        (l.words /. 1e6))
    rows

(* Durations of the root-level spans with this name, one per request. *)
let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration_s s) else None)
    !spans
