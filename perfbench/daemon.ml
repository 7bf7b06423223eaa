(* The daemon-mixed workload's live side: a freshly exec'd
   `codar_cli serve` at its defaults, driven over its Unix socket. *)

type t = {
  pid : int;
  out_r : Unix.file_descr;  (** the daemon's stdout *)
  err_r : Unix.file_descr;  (** the daemon's stderr: GC totals at exit *)
  sock : string;
}

let fail fmt = Printf.ksprintf failwith fmt

(* Read one line from [fd] through [buf], waiting at most [timeout] s. *)
let read_line ?(timeout = 120.) fd buf =
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
      String.sub s 0 i
    | None -> (
      match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> fail "no reply within %.0f s" timeout
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> fail "connection closed before a full line"
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          go ()))
  in
  go ()

(* Exec a fresh daemon and wait for its listening line on the stdout
   pipe: readiness comes from the pipe, never from polling the socket. *)
let spawn ~cli ~sock =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let env =
    Array.append
      [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun v ->
              not (String.length v >= 13 && String.sub v 0 13 = "OCAMLRUNPARAM"))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env cli
      [| cli; "serve"; "--socket"; sock |]
      env Unix.stdin out_w err_w
  in
  Unix.close out_w;
  Unix.close err_w;
  let d = { pid; out_r; err_r; sock } in
  let line = read_line ~timeout:60. out_r (Buffer.create 256) in
  let prefix = "codar serve: listening on" in
  if
    String.length line < String.length prefix
    || String.sub line 0 (String.length prefix) <> prefix
  then fail "daemon said %S instead of its listening line" line;
  d

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.sock);
  { fd; buf = Buffer.create 65536 }

let send c line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring c.fd s 0 (String.length s))

let request c line =
  send c line;
  read_line c.fd c.buf

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let read_all fd =
  let b = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes b chunk 0 k;
      go ()
  in
  go ();
  Unix.close fd;
  Buffer.contents b

(* Ask the daemon to shut down, wait for it, and return the words it
   allocated over its life (OCAMLRUNPARAM=v=0x400 prints them at exit). *)
let shutdown d =
  let c = connect d in
  ignore (request c {|{"op":"shutdown"}|});
  close c;
  let out = read_all d.out_r and err = read_all d.err_r in
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "daemon exited abnormally; stdout %S stderr %S" out err);
  let words =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "allocated_words: %f" Fun.id)
      (String.split_on_char '\n' err)
  in
  match words with
  | Some w -> w
  | None -> fail "daemon printed no allocated_words at exit: %S" err

(* Kill a daemon left behind by an exception, and reap it. *)
let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ d.out_r; d.err_r ];
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* The closed loop: [n_conns] connections, one outstanding request each,
   the request list dealt round-robin. The list is cut into segments of
   [every] requests: segment [k] is requests [k * every] onwards, and
   between two segments no request is in flight. [idle k] runs before
   segment [k] and [idle segs] after the last one. Returns each request's
   reply and its latency in ms (send to full reply). *)
let drive d ~n_conns ~every ~idle (lines : string array) =
  let n = Array.length lines in
  let replies = Array.make n "" and lat = Array.make n 0. in
  let conns = Array.init n_conns (fun _ -> connect d) in
  let next = Array.init n_conns Fun.id in
  let pending = Array.make n_conns (-1) in
  let sent_at = Array.make n_conns 0L in
  let chunk = Bytes.create 65536 in
  let limit = ref 0 in
  let issue k =
    let i = next.(k) in
    if i < !limit then begin
      next.(k) <- i + n_conns;
      pending.(k) <- i;
      sent_at.(k) <- Measure.now_ns ();
      send conns.(k) lines.(i)
    end
    else pending.(k) <- -1
  in
  let busy () = Array.exists (fun p -> p >= 0) pending in
  let segs = (n + every - 1) / every in
  for seg = 0 to segs - 1 do
    idle seg;
    limit := min n ((seg + 1) * every);
    Array.iteri (fun k _ -> issue k) conns;
    while busy () do
      let fds =
        List.filter_map
          (fun k -> if pending.(k) >= 0 then Some conns.(k).fd else None)
          (List.init n_conns Fun.id)
      in
      match Unix.select fds [] [] 120. with
      | [], _, _ -> fail "daemon-mixed: no reply within 120 s"
      | ready, _, _ ->
        List.iter
          (fun fd ->
            let k = ref 0 in
            while conns.(!k).fd <> fd do incr k done;
            let c = conns.(!k) in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> fail "daemon-mixed: daemon closed a connection"
            | got -> (
              Buffer.add_subbytes c.buf chunk 0 got;
              let s = Buffer.contents c.buf in
              match String.index_opt s '\n' with
              | None -> ()
              | Some j ->
                let now = Measure.now_ns () in
                let i = pending.(!k) in
                replies.(i) <- String.sub s 0 j;
                lat.(i) <- Int64.to_float (Int64.sub now sent_at.(!k)) /. 1e6;
                Buffer.clear c.buf;
                Buffer.add_substring c.buf s (j + 1) (String.length s - j - 1);
                issue !k))
          ready
    done
  done;
  idle segs;
  Array.iter close conns;
  (replies, lat)
