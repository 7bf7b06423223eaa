(* Minimal blocking client for the daemon: connect, one request line out,
   one reply line in. Used by `codar_cli client`, the smoke scripts and the
   service tests.

   [request_with_retry] adds the overload protocol's client half: an
   ["overloaded"] reply is the daemon shedding load, and the polite
   response is seeded-jitter exponential backoff — deterministic per
   seed, so the retry schedule itself is testable. *)

type t = {
  fd : Unix.file_descr;
  max_reply_bytes : int;  (* also bounds [request_many]'s own framer *)
  reader : Frame.reader;
}

let connect ?(max_reply_bytes = Frame.default_max_bytes) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; max_reply_bytes; reader = Frame.reader ~max_bytes:max_reply_bytes fd }

let send_line t line = Frame.write t.fd line

let oversized () = failwith "Service.Client: reply exceeds the frame limit"

let recv_line t =
  match Frame.read t.reader with
  | `Line l -> Some l
  | `Eof -> None
  | `Oversized -> oversized ()

let request t line =
  send_line t line;
  match recv_line t with
  | Some reply -> reply
  | None -> failwith "Service.Client: server closed the connection"

(* Pipelined round-trip: every request is written before (or while) the
   replies stream back, so N requests cost one connection and roughly one
   RTT of queueing instead of N blocking round-trips. Writing and reading
   interleave over [select] on a temporarily non-blocking fd — a client
   that only wrote first could deadlock against a server whose reply
   bytes are backing up (both kernel buffers full, both sides blocked on
   write). Bypasses [t.reader]; don't interleave with {!request} calls
   that left a partial reply buffered there. *)
let request_many t lines =
  let n = List.length lines in
  if n = 0 then []
  else begin
    let payload = Buffer.create 256 in
    List.iter
      (fun l ->
        Buffer.add_string payload l;
        Buffer.add_char payload '\n')
      lines;
    let out = Buffer.contents payload in
    let total = String.length out in
    Unix.set_nonblock t.fd;
    Fun.protect
      ~finally:(fun () ->
        try Unix.clear_nonblock t.fd with Unix.Unix_error _ -> ())
      (fun () ->
        let pos = ref 0 in
        let inbuf = Frame.framer ~max_bytes:t.max_reply_bytes in
        let chunk = Bytes.create 65536 in
        let replies = ref [] in
        let count = ref 0 in
        let rec drain_lines () =
          match Frame.next inbuf with
          | `Line l ->
            incr count;
            replies := l :: !replies;
            drain_lines ()
          | `Oversized -> oversized ()
          | `Partial -> ()
        in
        while !count < n do
          let want_write = if !pos < total then [ t.fd ] else [] in
          match Unix.select [ t.fd ] want_write [] (-1.) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | readable, writable, _ ->
            (if writable <> [] then
               match Unix.write_substring t.fd out !pos (total - !pos) with
               | k -> pos := !pos + k
               | exception
                   Unix.Unix_error
                     ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                 ());
            if readable <> [] then begin
              match Unix.read t.fd chunk 0 (Bytes.length chunk) with
              | 0 -> failwith "Service.Client: server closed the connection"
              | k ->
                Frame.feed inbuf chunk 0 k;
                drain_lines ()
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            end
        done;
        List.rev !replies)
  end

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection ?max_reply_bytes path f =
  let t = connect ?max_reply_bytes path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ------------------------------------------------------------- retries *)

let overloaded_reply line =
  match Report.Json.parse line with
  | Error _ -> false
  | Ok j -> (
    match Report.Json.member "code" j with
    | Some (Report.Json.String "overloaded") -> true
    | Some _ | None -> false)

(* Retry [k] (0-based) backs off [base * 2^k] ms plus a jitter drawn
   uniformly from [0, base * 2^k] by the SplitMix64 mixer — full
   determinism from (seed, k), full decorrelation across clients that
   pick different seeds. *)
let retry_delays_ms ~attempts ~base_delay_ms ~seed =
  if attempts < 0 then invalid_arg "Client.retry_delays_ms: attempts < 0";
  if base_delay_ms < 1 then
    invalid_arg "Client.retry_delays_ms: base_delay_ms < 1";
  List.init attempts (fun k ->
      let step = base_delay_ms * (1 lsl min k 16) in
      let jitter = Faults.mix ~seed ~index:k mod (step + 1) in
      step + jitter)

let request_with_retry ?(attempts = 5) ?(base_delay_ms = 5) ?(seed = 0) t line
    =
  let delays = retry_delays_ms ~attempts ~base_delay_ms ~seed in
  let rec go delays =
    let reply = request t line in
    match delays with
    | delay :: rest when overloaded_reply reply ->
      Thread.delay (float_of_int delay /. 1000.);
      go rest
    | _ -> reply
  in
  go delays
