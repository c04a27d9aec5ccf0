module Clock = Pchls_obs.Clock
module Metrics = Pchls_obs.Metrics

let m_trips = Metrics.counter "breaker.trips"
let m_fast_fails = Metrics.counter "breaker.fast_fails"

type state = Closed | Half_open | Open

let state_to_string = function
  | Closed -> "closed"
  | Half_open -> "half-open"
  | Open -> "open"

let state_gauge_value = function Closed -> 0. | Half_open -> 1. | Open -> 2.

type t = {
  name : string;
  window : int;
  threshold : float;
  min_samples : int;
  cooldown_ms : float;
  seed : int;
  now : unit -> int64;
  on_transition : state -> state -> unit;
  g_state : Metrics.gauge;
  mutex : Mutex.t;
  (* Ring of the last [window] outcomes; [samples] grows to [window]. *)
  outcomes : bool array;
  mutable next : int;
  mutable samples : int;
  mutable failures : int;
  mutable state : state;
  mutable reopen_at_ns : int64;  (* meaningful in [Open] *)
  mutable trips : int;
}

let create ?(now = Clock.now_ns) ?(window = 20) ?(threshold = 0.5)
    ?(min_samples = 5) ?(cooldown_ms = 1000.) ?(seed = 0)
    ?(on_transition = fun _ _ -> ()) ~name () =
  if window < 1 then
    invalid_arg (Printf.sprintf "Breaker.create: window < 1 (%d)" window);
  if threshold <= 0. || threshold > 1. then
    invalid_arg
      (Printf.sprintf "Breaker.create: threshold outside (0, 1] (%g)" threshold);
  if min_samples < 1 then
    invalid_arg
      (Printf.sprintf "Breaker.create: min_samples < 1 (%d)" min_samples);
  if cooldown_ms <= 0. then
    invalid_arg
      (Printf.sprintf "Breaker.create: cooldown_ms <= 0 (%g)" cooldown_ms);
  let g_state = Metrics.gauge (Printf.sprintf "breaker.%s.state" name) in
  Metrics.set g_state (state_gauge_value Closed);
  {
    name;
    window;
    threshold;
    min_samples;
    cooldown_ms;
    seed;
    now;
    on_transition;
    g_state;
    mutex = Mutex.create ();
    outcomes = Array.make window false;
    next = 0;
    samples = 0;
    failures = 0;
    state = Closed;
    reopen_at_ns = 0L;
    trips = 0;
  }

let name t = t.name

(* Run [f] under the lock; [f] returns (result, transition option) and
   the transition callback fires after unlocking, so a callback that
   inspects the breaker cannot deadlock. *)
let locked t f =
  Mutex.lock t.mutex;
  let out, transition =
    match f () with
    | v -> v
    | exception e ->
      Mutex.unlock t.mutex;
      raise e
  in
  Mutex.unlock t.mutex;
  (match transition with
  | Some (old_state, new_state) ->
    Metrics.set t.g_state (state_gauge_value new_state);
    t.on_transition old_state new_state
  | None -> ());
  out

let state t =
  Mutex.lock t.mutex;
  let s = t.state in
  Mutex.unlock t.mutex;
  s

let trips t =
  Mutex.lock t.mutex;
  let n = t.trips in
  Mutex.unlock t.mutex;
  n

let reset_window t =
  Array.fill t.outcomes 0 t.window false;
  t.next <- 0;
  t.samples <- 0;
  t.failures <- 0

let record t ok =
  if t.samples >= t.window then begin
    (* The slot being overwritten falls out of the window. *)
    if not t.outcomes.(t.next) then t.failures <- t.failures - 1
  end
  else t.samples <- t.samples + 1;
  t.outcomes.(t.next) <- ok;
  if not ok then t.failures <- t.failures + 1;
  t.next <- (t.next + 1) mod t.window

let trip t =
  t.trips <- t.trips + 1;
  Metrics.incr m_trips;
  (* Cooldown jitter is a pure function of (name, seed, trip count), so
     chaos campaigns replay the exact same open-state dwell times. *)
  let jitter = Fault.draw ~seed:t.seed ~key:t.trips t.name *. 0.25 in
  let dwell_ms = t.cooldown_ms *. (1. +. jitter) in
  t.reopen_at_ns <- Int64.add (t.now ()) (Int64.of_float (dwell_ms *. 1e6));
  let old_state = t.state in
  t.state <- Open;
  reset_window t;
  (old_state, Open)

let acquire t =
  let granted =
    locked t (fun () ->
        match t.state with
        | Closed -> (true, None)
        | Half_open -> (false, None)
        | Open ->
          if Int64.compare (t.now ()) t.reopen_at_ns >= 0 then begin
            t.state <- Half_open;
            (true, Some (Open, Half_open))
          end
          else (false, None))
  in
  if not granted then Metrics.incr m_fast_fails;
  granted

let success t =
  locked t (fun () ->
      match t.state with
      | Half_open ->
        t.state <- Closed;
        reset_window t;
        ((), Some (Half_open, Closed))
      | Closed | Open ->
        record t true;
        ((), None))

let failure t =
  locked t (fun () ->
      match t.state with
      | Half_open -> ((), Some (trip t))
      | Closed ->
        record t false;
        if
          t.samples >= t.min_samples
          && float_of_int t.failures /. float_of_int t.samples >= t.threshold
        then ((), Some (trip t))
        else ((), None)
      | Open ->
        record t false;
        ((), None))

let retry_after_ms t =
  Mutex.lock t.mutex;
  let ms =
    match t.state with
    | Open ->
      let left = Int64.to_float (Int64.sub t.reopen_at_ns (t.now ())) /. 1e6 in
      Float.max 0. left
    | Closed | Half_open -> 0.
  in
  Mutex.unlock t.mutex;
  ms
