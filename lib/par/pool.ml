module Metrics = Pchls_obs.Metrics
module Clock = Pchls_obs.Clock
module Trace = Pchls_obs.Trace
module Fault = Pchls_resil.Fault

let m_tasks = Metrics.counter "pool.tasks"
let m_task_retries = Metrics.counter "pool.task_retries"
let m_task_failures = Metrics.counter "pool.task_failures"

let h_task_wait_ns =
  Metrics.histogram ~buckets:Metrics.ns_buckets "pool.task_wait_ns"

let h_task_run_ns =
  Metrics.histogram ~buckets:Metrics.ns_buckets "pool.task_run_ns"

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when a task is queued or on shutdown *)
  tasks : (unit -> unit) Queue.t;  (* tasks never raise; see [dispatch] *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

(* Workers drain the queue even while stopping, so pending tasks are never
   dropped; they exit only once the queue is empty and [stopping] is set. *)
let worker pool () =
  let rec next () =
    if not (Queue.is_empty pool.tasks) then Some (Queue.pop pool.tasks)
    else if pool.stopping then None
    else begin
      Condition.wait pool.work pool.mutex;
      next ()
    end
  in
  let rec loop () =
    Mutex.lock pool.mutex;
    let task = next () in
    Mutex.unlock pool.mutex;
    match task with
    | None -> ()
    | Some task ->
      task ();
      loop ()
  in
  loop ()

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Domain.recommended_domain_count ()
  in
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Pool.create: jobs must be >= 1, got %d" jobs);
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      tasks = Queue.create ();
      stopping = false;
      domains = [];
    }
  in
  if jobs > 1 then
    pool.domains <- List.init jobs (fun _ -> Domain.spawn (worker pool));
  pool

let jobs pool = pool.jobs

let submit pool task =
  Mutex.protect pool.mutex (fun () ->
      if pool.stopping then invalid_arg "Pool: pool has been shut down";
      Queue.push task pool.tasks;
      Condition.signal pool.work)

let check_alive pool =
  if Mutex.protect pool.mutex (fun () -> pool.stopping) then
    invalid_arg "Pool: pool has been shut down"

(* The one dispatch path: one task per element, each timed from submit to
   start (queue wait) and from start to finish (run) — the gap between the
   two is the pool's scheduling overhead, visible in the pool.task_*_ns
   histograms. Blocks until every task has finished and returns the
   outcomes in input order. [f] must not raise. *)
let dispatch pool f xs =
  let n = Array.length xs in
  let outcomes = Array.make n None in
  let remaining = ref n in
  let join_mutex = Mutex.create () in
  let joined = Condition.create () in
  let task i x queued_ns () =
    let started_ns = Clock.now_ns () in
    Metrics.incr m_tasks;
    Metrics.observe h_task_wait_ns
      (Int64.to_float (Int64.sub started_ns queued_ns));
    let outcome = f i x in
    Metrics.observe h_task_run_ns (Clock.elapsed_ns ~since:started_ns);
    Mutex.protect join_mutex (fun () ->
        outcomes.(i) <- Some outcome;
        decr remaining;
        if !remaining = 0 then Condition.signal joined)
  in
  Array.iteri (fun i x -> submit pool (task i x (Clock.now_ns ()))) xs;
  Mutex.protect join_mutex (fun () ->
      while !remaining > 0 do
        Condition.wait joined join_mutex
      done);
  Array.map Option.get outcomes

let catch f x =
  match f x with
  | y -> Ok y
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* [Array.map] visits outcomes in input order, so the failure re-raised is
   the earliest by input index, whatever the completion order. *)
let reraise_first ~origin outcomes =
  Array.map
    (function
      | Ok y -> y
      | Error (e, bt) ->
        (* Crash-path hook: the worker's exception escapes at the join —
           dump the flight ring before the caller loses the context. *)
        Trace.note_crash ~origin e;
        Printexc.raise_with_backtrace e bt)
    outcomes

let inline pool xs = pool.jobs = 1 || List.compare_length_with xs 1 <= 0

let map pool f xs =
  check_alive pool;
  if inline pool xs then List.map f xs
  else
    Array.to_list
      (reraise_first ~origin:"pool.map"
         (dispatch pool (fun _ -> catch f) (Array.of_list xs)))

let run pool f =
  check_alive pool;
  if pool.jobs = 1 then f ()
  else
    let outcomes = dispatch pool (fun _ -> catch f) [| () |] in
    (reraise_first ~origin:"pool.run" outcomes).(0)

type failure = {
  attempts : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

(* One isolated item: crashes stay confined to their slot and are retried
   up to [retries] times before becoming a per-item [Error]. The
   "pool.worker" fault point fires per (item, attempt), so a seeded
   sub-unity probability can kill the first attempt and let the retry
   succeed. *)
let attempt_item ~retries f i x =
  let rec go attempt =
    match
      Fault.inject ~key:i ~salt:attempt "pool.worker";
      f x
    with
    | y ->
      if attempt > 0 then Metrics.incr m_task_retries;
      Ok y
    | exception exn ->
      let backtrace = Printexc.get_raw_backtrace () in
      if attempt < retries then begin
        Metrics.incr m_task_retries;
        go (attempt + 1)
      end
      else begin
        Metrics.incr m_task_failures;
        Trace.note_crash ~origin:"pool.task" exn;
        Error { attempts = attempt + 1; exn; backtrace }
      end
  in
  go 0

let try_map ?(retries = 1) pool f xs =
  if retries < 0 then
    invalid_arg (Printf.sprintf "Pool.try_map: retries < 0 (%d)" retries);
  check_alive pool;
  (* Inline, unlike [map], a failure does not stop the remaining items —
     isolation is the whole point. *)
  if inline pool xs then List.mapi (attempt_item ~retries f) xs
  else
    Array.to_list (dispatch pool (attempt_item ~retries f) (Array.of_list xs))

let shutdown pool =
  Mutex.lock pool.mutex;
  let domains = pool.domains in
  pool.stopping <- true;
  pool.domains <- [];
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join domains

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
