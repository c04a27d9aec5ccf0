module Metrics = Pchls_obs.Metrics

let m_coalesced = Metrics.counter "serve.coalesced"

type 'a flight = {
  mutable outcome : ('a, exn) result option;  (** [None] while running *)
  done_ : Condition.t;
}

type 'a t = {
  mutex : Mutex.t;
  flights : (string, 'a flight) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); flights = Hashtbl.create 16 }

type role = Led | Joined

let run t ~key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.flights key with
  | Some flight ->
    (* Follower: wait out the in-flight leader and share its outcome. The
       leader removes the flight from the table before broadcasting, so a
       woken follower always finds the outcome set. *)
    Metrics.incr m_coalesced;
    let rec wait () =
      match flight.outcome with
      | Some outcome -> outcome
      | None ->
        Condition.wait flight.done_ t.mutex;
        wait ()
    in
    let outcome = wait () in
    Mutex.unlock t.mutex;
    (outcome, Joined)
  | None ->
    let flight = { outcome = None; done_ = Condition.create () } in
    Hashtbl.replace t.flights key flight;
    Mutex.unlock t.mutex;
    let outcome =
      match f () with
      | v -> Ok v
      | exception e -> Error e
    in
    Mutex.lock t.mutex;
    Hashtbl.remove t.flights key;
    flight.outcome <- Some outcome;
    Condition.broadcast flight.done_;
    Mutex.unlock t.mutex;
    (outcome, Led)

let in_flight t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.flights in
  Mutex.unlock t.mutex;
  n
