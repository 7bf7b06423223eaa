(* A fixed-size Domain pool. The contract that matters is determinism (see
   the .mli): results live in the slot of their task index, reductions fold
   in index order, and the lowest-indexed task exception wins. Scheduling
   (which domain runs which task, in what order) is deliberately free.

   Synchronisation is one mutex, one "work arrived" condition for the
   workers and one "batch drained" condition for the submitter. Thunks
   catch their own exceptions into their result slot, so a worker never
   dies with the queue half-drained. *)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  m : Mutex.t;
  work : Condition.t;
  batch_done : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let max_jobs = 256

let default_jobs () = min max_jobs (max 1 (Domain.recommended_domain_count ()))

let rec worker t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work t.m
  done;
  match Queue.take_opt t.queue with
  | None ->
    (* stopping and drained *)
    Mutex.unlock t.m
  | Some thunk ->
    Mutex.unlock t.m;
    thunk ();
    worker t

let create ~jobs =
  if jobs < 1 || jobs > max_jobs then
    invalid_arg (Fmt.str "Pool.create: jobs = %d not in [1, %d]" jobs max_jobs);
  let t =
    {
      jobs;
      queue = Queue.create ();
      m = Mutex.create ();
      work = Condition.create ();
      batch_done = Condition.create ();
      stopping = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Re-raise the lowest-indexed failure, or extract all successes. *)
let finalize results =
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error _) | None -> assert false)
    results

let map t f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    if t.stopping then invalid_arg "Pool.map: pool is shut down";
    let results = Array.make n None in
    let run i =
      try
        (* fault points at the task boundary: an injected exception is
           indistinguishable from a task that raised (the caller's
           lowest-index propagation contract applies), injected latency
           perturbs scheduling without touching results *)
        Faults.raise_if Faults.Pool_task_exn "pool task";
        Faults.pause Faults.Pool_latency;
        Ok (f i tasks.(i))
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    if t.jobs = 1 || n = 1 then
      for i = 0 to n - 1 do
        results.(i) <- Some (run i)
      done
    else begin
      let remaining = ref n in
      let thunk i () =
        let r = run i in
        Mutex.lock t.m;
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.broadcast t.batch_done;
        Mutex.unlock t.m
      in
      Mutex.lock t.m;
      for i = 0 to n - 1 do
        Queue.add (thunk i) t.queue
      done;
      Condition.broadcast t.work;
      (* The submitter is the pool's [jobs]-th worker for this batch: drain
         thunks until the queue is empty, then sleep until the stragglers
         running in other domains finish. *)
      while !remaining > 0 do
        match Queue.take_opt t.queue with
        | Some thunk ->
          Mutex.unlock t.m;
          thunk ();
          Mutex.lock t.m
        | None -> Condition.wait t.batch_done t.m
      done;
      Mutex.unlock t.m
    end;
    finalize results
  end
