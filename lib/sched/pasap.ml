module Graph = Pchls_dfg.Graph
module Profile = Pchls_power.Profile
module Folded = Pchls_power.Folded
module Pqueue = Pchls_compat.Pqueue
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

(* The scheduler keeps, for each ready operation, its earliest precedence-
   feasible start [est] (fixed once all predecessors are placed) and its
   power offset [o]; the tentative start is [est + o]. *)
type ready = { id : int; est : int; mutable offset : int; priority : int }

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

(* Heap entries snapshot the tentative start at push time; an entry whose
   snapshot no longer matches [est + offset] (the operation was re-pushed
   at a later start) or whose operation has been placed is stale and is
   dropped on pop — lazy deletion. The ordering reproduces the total order
   the old Hashtbl.fold selection used: earliest tentative start first,
   then highest priority, then lowest id. *)
type entry = { e_t : int; e_priority : int; e_id : int }

let entry_cmp a b =
  if a.e_t <> b.e_t then Int.compare a.e_t b.e_t
  else if a.e_priority <> b.e_priority then Int.compare b.e_priority a.e_priority
  else Int.compare a.e_id b.e_id

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
  let latency id = (info id).Schedule.latency in
  (* One topological pass for every priority, not one pass per node. *)
  let priority_of = Graph.distances_to_sink g ~latency in
  let ledger =
    match period with
    | None -> Cycles (Profile.create ~horizon)
    | Some period -> Classes (Folded.create ~period)
  in
  let sched = ref Schedule.empty in
  let remaining_preds = Hashtbl.create 64 in
  let ready : (int, ready) Hashtbl.t = Hashtbl.create 64 in
  let heap = Pqueue.create ~cmp:entry_cmp in
  let push r =
    Pqueue.add heap { e_t = r.est + r.offset; e_priority = r.priority; e_id = r.id }
  in
  let locked_tbl = Hashtbl.create 16 in
  List.iter (fun (id, t) -> Hashtbl.replace locked_tbl id t) locked;
  let is_locked id = Hashtbl.mem locked_tbl id in
  try
    (* Reserve the locked operations first. *)
    Hashtbl.iter
      (fun id t ->
        let { Schedule.latency = d; power } = info id in
        if t < 0 || t + d > horizon then
          raise
            (Stop
               (Infeasible
                  { node = id; reason = "locked start leaves the horizon" }));
        add ledger ~start:t ~latency:d ~power;
        sched := Schedule.set !sched id t)
      locked_tbl;
    if peak ledger > power_limit +. Profile.eps then begin
      let offender =
        match locked with (id, _) :: _ -> id | [] -> -1
      in
      raise
        (Stop
           (Infeasible
              {
                node = offender;
                reason = "locked operations alone exceed the power limit";
              }))
    end;
    List.iter
      (fun id ->
        if not (is_locked id) then
          let unplaced =
            List.length (List.filter (fun p -> not (is_locked p)) (Graph.preds g id))
          in
          Hashtbl.replace remaining_preds id unplaced)
      (Graph.node_ids g);
    let est_of id =
      List.fold_left
        (fun acc p -> max acc (Schedule.start !sched p + latency p))
        0 (Graph.preds g id)
    in
    let enter id =
      if Hashtbl.find remaining_preds id = 0 then begin
        let r = { id; est = est_of id; offset = 0; priority = priority_of id } in
        Hashtbl.replace ready id r;
        push r
      end
    in
    List.iter
      (fun id -> if not (is_locked id) then enter id)
      (Graph.node_ids g);
    let place r =
      let t = r.est + r.offset in
      let { Schedule.latency = d; power } = info r.id in
      sched := Schedule.set !sched r.id t;
      add ledger ~start:t ~latency:d ~power;
      Hashtbl.remove ready r.id;
      List.iter
        (fun s ->
          if not (is_locked s) then begin
            let n = Hashtbl.find remaining_preds s - 1 in
            Hashtbl.replace remaining_preds s n;
            if n = 0 then enter s
          end)
        (Graph.succs g r.id)
    in
    let rec loop () =
      (* Cooperative cancellation: polled once per heap pop, so a deadline
         interrupts even a pathologically power-bound schedule. *)
      if cancelled () then
        raise (Stop (Infeasible { node = -1; reason = "cancelled" }));
      match Pqueue.pop heap with
      | None -> ()
      | Some e -> (
        match Hashtbl.find_opt ready e.e_id with
        | None -> loop () (* already placed; stale entry *)
        | Some r when r.est + r.offset <> e.e_t -> loop () (* superseded *)
        | Some r ->
          let t = r.est + r.offset in
          let { Schedule.latency = d; power } = info r.id in
          if t + d > horizon then
            raise
              (Stop
                 (Infeasible
                    {
                      node = r.id;
                      reason =
                        Printf.sprintf
                          "no power-feasible start in [%d, %d] within horizon %d"
                          r.est (horizon - d) horizon;
                    }));
          if fits ledger ~start:t ~latency:d ~power ~limit:power_limit
          then place r
          else begin
            (* The paper's power-feasibility delay loop, batched: the
               ledger only ever gains power while an operation waits, so
               every start the current ledger rejects stays rejected — the
               whole run of doomed one-cycle bumps can be taken at once via
               [first_fit]. The operation is re-tested when its new start
               reaches the head of the heap (the ledger may have hardened
               since, pushing it further right), so placements interleave
               exactly as they would under one-at-a-time bumping. The
               offset-delay counter still advances by one per skipped
               cycle — it remains the direct measure of how power-bound the
               schedule is. *)
            let next =
              match
                first_fit ledger ~horizon ~start:t ~latency:d ~power
                  ~limit:power_limit
              with
              | Some s -> s
              | None ->
                (* No fit within the horizon under the current ledger: the
                   old loop would bump cycle-by-cycle to the first start
                   past the horizon and report infeasibility only when that
                   entry surfaced — after any other operation with an
                   earlier tentative start had its own chance to fail. Park
                   the entry there to preserve that order. *)
                horizon - d + 1
            in
            Metrics.incr ~by:(next - t) m_offset_delays;
            r.offset <- r.offset + (next - t);
            push r
          end;
          loop ())
    in
    loop ();
    (* Locked operations may have been placed inconsistently with their
       (possibly later-scheduled) predecessors; reject such schedules. *)
    List.iter
      (fun (pred, succ) ->
        if
          is_locked succ
          && Schedule.start !sched pred + latency pred
             > Schedule.start !sched succ
        then
          raise
            (Stop
               (Infeasible
                  {
                    node = succ;
                    reason =
                      Printf.sprintf "locked start precedes end of predecessor %d"
                        pred;
                  })))
      (Graph.edges g);
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
