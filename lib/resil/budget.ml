module Clock = Pchls_obs.Clock
module Metrics = Pchls_obs.Metrics

let m_deadline_hits = Metrics.counter "resil.deadline_hits"

type reason = Wall_clock | Iterations

type t = {
  deadline_ns : int64 option;  (* absolute, on the monotonic clock *)
  max_iters : int option;
  iters : int Atomic.t;
  (* Latched on first observed expiry so resil.deadline_hits counts
     budgets, not polls. *)
  expired : bool Atomic.t;
}

(* [ms] from now on the monotonic clock, saturating at [Int64.max_int]: a
   deadline past the int64 range (infinity included) never expires, where
   the plain sum would wrap into the past. *)
let deadline_after ms =
  let now = Clock.now_ns () in
  let ns = ms *. 1e6 in
  if ns >= Int64.to_float (Int64.sub Int64.max_int now) then Int64.max_int
  else Int64.add now (Int64.of_float ns)

let make ?deadline_ms ?max_iters () =
  (match deadline_ms with
  | Some ms when not (ms >= 0.) ->
    invalid_arg
      (Printf.sprintf "Budget.make: deadline_ms must be >= 0 (%g)" ms)
  | Some _ | None -> ());
  (match max_iters with
  | Some n when n < 0 ->
    invalid_arg (Printf.sprintf "Budget.make: max_iters < 0 (%d)" n)
  | Some _ | None -> ());
  {
    deadline_ns = Option.map deadline_after deadline_ms;
    max_iters;
    iters = Atomic.make 0;
    expired = Atomic.make false;
  }

let tick t = ignore (Atomic.fetch_and_add t.iters 1)
let ticks t = Atomic.get t.iters

let latch t = function
  | None -> None
  | Some _ as r ->
    if not (Atomic.exchange t.expired true) then Metrics.incr m_deadline_hits;
    r

let wall_expired t =
  match t.deadline_ns with
  | Some d -> Int64.compare (Clock.now_ns ()) d >= 0
  | None -> false

let interrupted t = latch t (if wall_expired t then Some Wall_clock else None)

let check t =
  match interrupted t with
  | Some _ as r -> r
  | None ->
    latch t
      (match t.max_iters with
      | Some n when Atomic.get t.iters >= n -> Some Iterations
      | Some _ | None -> None)

let exhausted t = check t <> None

let remaining_ns t =
  Option.map
    (fun d ->
      let left = Int64.sub d (Clock.now_ns ()) in
      if Int64.compare left 0L > 0 then left else 0L)
    t.deadline_ns

let reason_to_string = function
  | Wall_clock -> "wall-clock deadline exceeded"
  | Iterations -> "iteration budget exhausted"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)
