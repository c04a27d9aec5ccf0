module Graph = Pchls_dfg.Graph
module Profile = Pchls_power.Profile
module Folded = Pchls_power.Folded
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics

let m_runs = Metrics.counter "pasap.runs"
let m_offset_delays = Metrics.counter "pasap.offset_delays"
let m_infeasible = Metrics.counter "pasap.infeasible"

type outcome =
  | Feasible of Schedule.t
  | Infeasible of { node : int; reason : string }

let schedule_exn = function
  | Feasible s -> s
  | Infeasible { node; reason } ->
    failwith (Printf.sprintf "pasap infeasible at node %d: %s" node reason)

exception Stop of outcome

(* The running power total placements are checked against: per cycle, or
   with [?period] the steady-state total per congruence class. *)
type ledger = Cycles of Profile.t | Classes of Folded.t

let fits ledger ~start ~latency ~power ~limit =
  match ledger with
  | Cycles p -> Profile.fits p ~start ~latency ~power ~limit
  | Classes f -> Folded.fits f ~start ~latency ~power ~limit

let add ledger ~start ~latency ~power =
  match ledger with
  | Cycles p -> Profile.add p ~start ~latency ~power
  | Classes f -> Folded.add f ~start ~latency ~power

let peak = function Cycles p -> Profile.peak p | Classes f -> Folded.peak f

(* The folded ledger has no block summary to skip by, so it tries each
   start in turn until one fits or the interval leaves the horizon. *)
let first_fit ledger ~horizon ~start ~latency ~power ~limit =
  match ledger with
  | Cycles p -> Profile.first_fit p ~start ~latency ~power ~limit
  | Classes f ->
    let rec go s =
      if s + latency > horizon then None
      else if Folded.fits f ~start:s ~latency ~power ~limit then Some s
      else go (s + 1)
    in
    go start

let no_slot_reason ~est ~latency ~horizon =
  if est <= horizon - latency then
    Printf.sprintf "no power-feasible start in [%d, %d] within horizon %d" est
      (horizon - latency) horizon
  else if est > 0 then
    Printf.sprintf
      "predecessors finish at cycle %d, leaving no %d-cycle slot within \
       horizon %d"
      est latency horizon
  else Printf.sprintf "no %d-cycle slot fits within horizon %d" latency horizon

(* The loop steps through the cycles 0..horizon. [bucket.(t)] holds the
   ready operations whose tentative start is [t]; reaching cycle [t], the
   loop takes them in (larger priority, smaller id) order and either
   places each at [t] or moves it to a later bucket. That is the order a
   priority queue keyed on (start, -priority, id) would pop them in,
   because nothing is ever pushed at or before the cycle being processed:
   a successor enters at [est >= t + d >= t + 1], a bumped operation moves
   to [first_fit]'s start, which is after the start that just failed, and
   an operation with no fit left is parked at [horizon - d + 1 > t]. So
   tentative starts never decrease and a bucket is complete by the time
   the loop reaches it, including the bucket that reports an
   infeasibility first.

   Nodes are indexed by their position in [Graph.node_ids], and every
   per-node quantity lives in an array allocated for this call only, so
   concurrent calls on different domains share nothing. *)
let run g ~info ~horizon ?(power_limit = infinity) ?period ?(locked = [])
    ?(cancelled = fun () -> false) () =
  if horizon < 0 then invalid_arg "Pasap.run: negative horizon";
  (match period with
  | Some p when p < 1 -> invalid_arg "Pasap.run: period < 1"
  | Some _ | None -> ());
  List.iter
    (fun (id, _) ->
      if not (Graph.mem g id) then
        invalid_arg (Printf.sprintf "Pasap.run: locked node %d not in graph" id))
    locked;
  if
    List.length (List.sort_uniq Int.compare (List.map fst locked))
    <> List.length locked
  then invalid_arg "Pasap.run: node locked twice";
  Metrics.incr m_runs;
  Trace.span ~cat:"sched" "pasap.run" @@ fun () ->
  let ids = Array.of_list (Graph.node_ids g) in
  let n = Array.length ids in
  let index = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let idx id = Hashtbl.find index id in
  let adjacent f =
    Array.map (fun id -> Array.of_list (List.map idx (f g id))) ids
  in
  let preds = adjacent Graph.preds and succs = adjacent Graph.succs in
  let latency = Array.make n 0 and power = Array.make n 0. in
  Array.iteri
    (fun i id ->
      let { Schedule.latency = d; power = p } = info id in
      latency.(i) <- d;
      power.(i) <- p)
    ids;
  (* Longest latency-weighted path to a sink, consumers first: the values
     of [Graph.distances_to_sink]. *)
  let priority = Array.make n 0 in
  List.iter
    (fun id ->
      let i = idx id in
      priority.(i) <-
        Array.fold_left (fun acc s -> max acc priority.(s)) 0 succs.(i)
        + latency.(i))
    (List.rev (Graph.topological_order g));
  let ledger =
    match period with
    | None -> Cycles (Profile.create ~horizon)
    | Some period -> Classes (Folded.create ~period)
  in
  let start = Array.make n 0 and is_locked = Array.make n false in
  let delays = ref 0 in
  let outcome =
    try
      (* Reserve the locked operations first, in the order a hash table
         built from [locked] iterates them: the ledger's floats are sums,
         and a different order can change a cycle's total in its last
         bit. *)
      let locked_tbl = Hashtbl.create 16 in
      List.iter (fun (id, t) -> Hashtbl.replace locked_tbl id t) locked;
      Hashtbl.iter
        (fun id t ->
          let i = idx id in
          if t < 0 || t + latency.(i) > horizon then
            raise
              (Stop
                 (Infeasible
                    { node = id; reason = "locked start leaves the horizon" }));
          add ledger ~start:t ~latency:latency.(i) ~power:power.(i);
          start.(i) <- t;
          is_locked.(i) <- true)
        locked_tbl;
      if peak ledger > power_limit +. Profile.eps then begin
        let offender = match locked with (id, _) :: _ -> id | [] -> -1 in
        raise
          (Stop
             (Infeasible
                {
                  node = offender;
                  reason = "locked operations alone exceed the power limit";
                }))
      end;
      let unplaced =
        Array.map
          (fun ps ->
            Array.fold_left
              (fun acc p -> if is_locked.(p) then acc else acc + 1)
              0 ps)
          preds
      in
      let est = Array.make n 0 in
      let bucket = Array.make (horizon + 1) [] in
      let push i t = bucket.(t) <- i :: bucket.(t) in
      let enter i =
        est.(i) <-
          Array.fold_left
            (fun acc p -> max acc (start.(p) + latency.(p)))
            0 preds.(i);
        push i est.(i)
      in
      for i = 0 to n - 1 do
        if (not is_locked.(i)) && unplaced.(i) = 0 then enter i
      done;
      let place i t =
        start.(i) <- t;
        add ledger ~start:t ~latency:latency.(i) ~power:power.(i);
        Array.iter
          (fun s ->
            if not is_locked.(s) then begin
              unplaced.(s) <- unplaced.(s) - 1;
              if unplaced.(s) = 0 then enter s
            end)
          succs.(i)
      in
      let attempt t i =
        (* Cooperative cancellation: polled once per placement attempt, so
           a deadline interrupts even a pathologically power-bound
           schedule. *)
        if cancelled () then
          raise (Stop (Infeasible { node = -1; reason = "cancelled" }));
        let d = latency.(i) and p = power.(i) in
        if t + d > horizon then
          raise
            (Stop
               (Infeasible
                  {
                    node = ids.(i);
                    reason = no_slot_reason ~est:est.(i) ~latency:d ~horizon;
                  }));
        if fits ledger ~start:t ~latency:d ~power:p ~limit:power_limit then
          place i t
        else begin
          (* The paper's power-feasibility delay loop, batched: the ledger
             only ever gains power while an operation waits, so every
             start the current ledger rejects stays rejected, and the
             whole run of doomed one-cycle bumps is taken at once. The
             operation is re-tested when the loop reaches its new start
             (the ledger may have hardened since), so placements
             interleave exactly as under one-at-a-time bumping. The
             offset-delay counter still advances by one per skipped
             cycle. With no fit left the operation is parked just past
             the last start inside the horizon, so an operation with an
             earlier tentative start still fails first. *)
          let next =
            match
              first_fit ledger ~horizon ~start:t ~latency:d ~power:p
                ~limit:power_limit
            with
            | Some s -> s
            | None -> horizon - d + 1
          in
          delays := !delays + (next - t);
          push i next
        end
      in
      let by_priority a b =
        if priority.(a) <> priority.(b) then
          Int.compare priority.(b) priority.(a)
        else Int.compare a b
      in
      for t = 0 to horizon do
        match bucket.(t) with
        | [] -> ()
        | ready ->
          bucket.(t) <- [];
          let ready = Array.of_list ready in
          Array.sort by_priority ready;
          Array.iter (attempt t) ready
      done;
      (* The poll a drained queue would make on its last, empty pop. *)
      if cancelled () then
        raise (Stop (Infeasible { node = -1; reason = "cancelled" }));
      (* Locked operations may have been placed inconsistently with their
         (possibly later-scheduled) predecessors; reject such schedules,
         reporting the first offending edge in (pred, succ) order. *)
      Array.iteri
        (fun p ss ->
          Array.iter
            (fun s ->
              if is_locked.(s) && start.(p) + latency.(p) > start.(s) then
                raise
                  (Stop
                     (Infeasible
                        {
                          node = ids.(s);
                          reason =
                            Printf.sprintf
                              "locked start precedes end of predecessor %d"
                              ids.(p);
                        })))
            ss)
        succs;
      let sched = ref Schedule.empty in
      Array.iteri (fun i id -> sched := Schedule.set !sched id start.(i)) ids;
      Feasible !sched
    with Stop o ->
      Metrics.incr m_infeasible;
      (match o with
      | Infeasible { node; reason } ->
        if Trace.observed () then
          Trace.instant ~cat:"sched"
            ~args:[ ("node", string_of_int node); ("reason", reason) ]
            "pasap.infeasible"
      | Feasible _ -> ());
      o
  in
  if !delays > 0 then Metrics.incr ~by:!delays m_offset_delays;
  outcome
