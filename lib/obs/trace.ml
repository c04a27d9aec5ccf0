type phase = Event.phase = Complete of { dur_ns : int64 } | Instant

type event = Event.t = {
  name : string;
  cat : string;
  phase : phase;
  ts_ns : int64;
  tid : int;
  args : (string * string) list;
}

type sink = {
  mutex : Mutex.t;
  epoch_ns : int64;
  mutable rev_events : event list;
  mutable n : int;
}

let installed : sink option Atomic.t = Atomic.make None
let total : int Atomic.t = Atomic.make 0

let make () =
  {
    mutex = Mutex.create ();
    epoch_ns = Clock.now_ns ();
    rev_events = [];
    n = 0;
  }

let install sink = Atomic.set installed (Some sink)
let uninstall () = Atomic.set installed None

let with_sink sink f =
  install sink;
  Fun.protect ~finally:uninstall f

let enabled () = Option.is_some (Atomic.get installed)
let observed () = Option.is_some (Atomic.get installed) || Flight.armed ()
let tid () = (Domain.self () :> int)

let record sink ev =
  Mutex.lock sink.mutex;
  sink.rev_events <- ev :: sink.rev_events;
  sink.n <- sink.n + 1;
  Mutex.unlock sink.mutex;
  Atomic.incr total

(* The observer tee: the sink keeps everything (timestamps relative to
   its epoch), the flight recorder keeps a bounded ring (absolute
   timestamps, relativized at dump time). [t0_ns] is absolute. *)
let emit ~name ~cat ~args ~t0_ns ~phase =
  let tid = tid () in
  (match Atomic.get installed with
  | None -> ()
  | Some sink ->
    record sink
      { name; cat; phase; ts_ns = Int64.sub t0_ns sink.epoch_ns; tid; args });
  if Flight.armed () then
    Flight.record { name; cat; phase; ts_ns = t0_ns; tid; args }

let span ?(cat = "pchls") ?(args = []) name f =
  if not (observed ()) then f ()
  else
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        emit ~name ~cat ~args ~t0_ns:t0
          ~phase:(Complete { dur_ns = Int64.sub t1 t0 }))
      f

let instant ?(cat = "pchls") ?(args = []) name =
  if observed () then
    emit ~name ~cat ~args ~t0_ns:(Clock.now_ns ()) ~phase:Instant

let events sink =
  Mutex.lock sink.mutex;
  let evs = List.rev sink.rev_events in
  Mutex.unlock sink.mutex;
  Event.sort evs

let count sink =
  Mutex.lock sink.mutex;
  let n = sink.n in
  Mutex.unlock sink.mutex;
  n

let total_recorded () = Atomic.get total

(* --- Chrome trace_event JSON ------------------------------------------- *)

let to_chrome sink = Event.chrome_document (events sink)

(* --- human-readable tree ------------------------------------------------ *)

let render_tree sink = Event.render_tree (events sink)
