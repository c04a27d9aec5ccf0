module Graph = Pchls_dfg.Graph
module Profile = Pchls_power.Profile
module Folded = Pchls_power.Folded
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics

let m_runs = Metrics.counter "pasap.runs"
let m_offset_delays = Metrics.counter "pasap.offset_delays"
let m_infeasible = Metrics.counter "pasap.infeasible"

type 'a answer =
  | Feasible of 'a
  | Infeasible of { node : int; reason : string }

type outcome = Schedule.t answer

let schedule_exn = function
  | Feasible s -> s
  | Infeasible { node; reason } ->
    failwith (Printf.sprintf "pasap infeasible at node %d: %s" node reason)

exception Stop of int array answer

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

(* Binary min-heaps of ints ordered by [rank], in arrays sized for their
   largest content. *)
type heap = { slots : int array; mutable size : int }

let top h = h.slots.(0)

let swap h j k =
  let x = h.slots.(j) in
  h.slots.(j) <- h.slots.(k);
  h.slots.(k) <- x

let rec sift_up h ~rank j =
  let parent = (j - 1) / 2 in
  if j > 0 && rank h.slots.(j) < rank h.slots.(parent) then begin
    swap h j parent;
    sift_up h ~rank parent
  end

let rec sift_down h ~rank j =
  let l = (2 * j) + 1 in
  if l < h.size then begin
    let c =
      if l + 1 < h.size && rank h.slots.(l + 1) < rank h.slots.(l) then l + 1
      else l
    in
    if rank h.slots.(c) < rank h.slots.(j) then begin
      swap h j c;
      sift_down h ~rank c
    end
  end

let push h ~rank x =
  h.slots.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h ~rank (h.size - 1)

let pop h ~rank =
  h.size <- h.size - 1;
  h.slots.(0) <- h.slots.(h.size);
  sift_down h ~rank 0

(* The indices [locked] does not mark free with -1, ascending. *)
let locked_indices locked =
  let order = ref [] in
  for i = Array.length locked - 1 downto 0 do
    if locked.(i) <> -1 then order := i :: !order
  done;
  Array.of_list !order

(* The loop steps through the cycles 0..horizon and tests one operation at
   a time at the current cycle [t]. Unlocked operations that share a
   (latency, power) form a class; an operation joins its class's heap,
   ordered by (larger priority, smaller id), when the loop reaches its
   [est]. At [t] the loop tests the best head among the awake classes,
   picked by a heap of awake classes keyed on their heads. A head that
   fits is placed at [t]. A head that does not puts its whole class to
   sleep until [first_fit]'s next admissible start, or until
   [horizon - d + 1] when none is left, where the head then reports the
   infeasibility. A successor joins at [est >= t + d >= t + 1], so a
   cycle's candidates are fixed once it starts; the cycle ends when no
   class is awake.

   This makes the placements, in the same order, of the loop that moves
   each rejected operation to [first_fit]'s start and re-tests it there,
   taking a cycle's operations in (larger priority, smaller id) order.
   Within a call the ledger only gains power, so a start rejected once
   stays rejected, and whether a start fits depends on an operation only
   through its (latency, power). So every test that one loop makes and
   the other does not fails:
   - an operation tested here at a cycle before the start its own
     [first_fit] named fails, as that start was rejected for it then;
   - an operation skipped here, behind a head that failed at [t] or in a
     class asleep until [w], would fail at [t] or at any cycle before
     [w], as the head's failure rejected those starts for its class.
   Failed tests place nothing, and the rest run in the same (cycle,
   larger priority, smaller id) order against the same ledger. A class
   asleep at [t] has [t + d <= horizon], since it wakes by
   [horizon - d + 1], so the first operation in that order to run past
   the horizon is an awake head, the one the other loop reports. Only
   the count of tests falls: per cycle, at most one failure per class.

   Operations are [Graph]'s indices, and the loop reads the graph's own
   predecessor and successor arrays and its longest-path pass for the
   priorities. The graph and the caller's latency, power and locked
   arrays are only read; every other per-node quantity, the returned
   starts included, lives in an array allocated for this call, so
   concurrent calls on different domains share nothing they write. *)
let starts g ~latency ~power ~locked ?lock_order ?overload_node ~horizon
    ?(power_limit = infinity) ?period ?(cancelled = fun () -> false) () =
  let n = Graph.node_count g in
  if horizon < 0 then invalid_arg "Pasap.starts: negative horizon";
  (match period with
  | Some p when p < 1 -> invalid_arg "Pasap.starts: period < 1"
  | Some _ | None -> ());
  if
    Array.length latency <> n || Array.length power <> n
    || Array.length locked <> n
  then invalid_arg "Pasap.starts: an array's length is not the node count";
  let id i = (Graph.node_at g i).Graph.id in
  let lock_order =
    match lock_order with Some o -> o | None -> locked_indices locked
  in
  let overload_node =
    match overload_node with
    | Some node -> node
    | None -> if Array.length lock_order > 0 then id lock_order.(0) else -1
  in
  Metrics.incr m_runs;
  Trace.span ~cat:"sched" "pasap.run" @@ fun () ->
  let preds = Graph.pred_indices g and succs = Graph.succ_indices g in
  let priority = Graph.longest_paths g ~latency:(Array.get latency) in
  let ledger =
    match period with
    | None -> Cycles (Profile.create ~horizon)
    | Some period -> Classes (Folded.create ~period)
  in
  let start = Array.make n 0 and is_locked = Array.make n false in
  let delays = ref 0 in
  let outcome =
    try
      (* Reserve the locked operations first, in [lock_order]: the
         ledger's floats are sums, and a different order can change a
         cycle's total in its last bit. *)
      Array.iter
        (fun i ->
          let t = locked.(i) in
          if is_locked.(i) then
            invalid_arg "Pasap.starts: an index is twice in lock_order";
          if t < 0 || t + latency.(i) > horizon then
            raise
              (Stop
                 (Infeasible
                    { node = id i; reason = "locked start leaves the horizon" }));
          add ledger ~start:t ~latency:latency.(i) ~power:power.(i);
          start.(i) <- t;
          is_locked.(i) <- true)
        lock_order;
      if peak ledger > power_limit +. Profile.eps then
        raise
          (Stop
             (Infeasible
                {
                  node = overload_node;
                  reason = "locked operations alone exceed the power limit";
                }));
      let unplaced =
        Array.init n (fun i ->
            Array.fold_left
              (fun acc p -> if is_locked.(p) then acc else acc + 1)
              0 (preds i))
      in
      let est = Array.make n 0 in
      let arrivals = Array.make (horizon + 1) [] in
      let enter i =
        est.(i) <-
          Array.fold_left
            (fun acc p -> max acc (start.(p) + latency.(p)))
            0 (preds i);
        arrivals.(est.(i)) <- i :: arrivals.(est.(i))
      in
      for i = 0 to n - 1 do
        if (not is_locked.(i)) && unplaced.(i) = 0 then enter i
      done;
      let place i t =
        start.(i) <- t;
        add ledger ~start:t ~latency:latency.(i) ~power:power.(i);
        delays := !delays + (t - est.(i));
        Array.iter
          (fun s ->
            if not is_locked.(s) then begin
              unplaced.(s) <- unplaced.(s) - 1;
              if unplaced.(s) = 0 then enter s
            end)
          (succs i)
      in
      (* One int per operation, ascending in (larger priority, smaller
         index) order. *)
      let op_rank i = i - (priority.(i) * n) in
      (* Classes are numbered in the order their first member appears. *)
      let class_of = Array.make n (-1) and members = Array.make n 0 in
      let by_spec = Hashtbl.create 8 in
      for i = 0 to n - 1 do
        if not is_locked.(i) then begin
          let spec = (latency.(i), power.(i)) in
          let c =
            match Hashtbl.find_opt by_spec spec with
            | Some c -> c
            | None ->
              let c = Hashtbl.length by_spec in
              Hashtbl.add by_spec spec c;
              c
          in
          class_of.(i) <- c;
          members.(c) <- members.(c) + 1
        end
      done;
      let n_classes = Hashtbl.length by_spec in
      let ready =
        Array.init n_classes (fun c ->
            { slots = Array.make members.(c) 0; size = 0 })
      in
      let class_rank c = op_rank (top ready.(c)) in
      let awake = { slots = Array.make n_classes 0; size = 0 } in
      let in_awake = Array.make n_classes false in
      let asleep_until = Array.make n_classes 0 in
      let wakes = Array.make (horizon + 1) [] in
      let wake t c =
        if (not in_awake.(c)) && ready.(c).size > 0 && asleep_until.(c) <= t
        then begin
          in_awake.(c) <- true;
          push awake ~rank:class_rank c
        end
      in
      let retire c =
        in_awake.(c) <- false;
        pop awake ~rank:class_rank
      in
      for t = 0 to horizon do
        (* Every arrival joins before any class is keyed by its head. *)
        List.iter
          (fun i -> push ready.(class_of.(i)) ~rank:op_rank i)
          arrivals.(t);
        List.iter (fun i -> wake t class_of.(i)) arrivals.(t);
        List.iter (wake t) wakes.(t);
        while awake.size > 0 do
          let c = top awake in
          let i = top ready.(c) in
          (* Cooperative cancellation: polled once per test, so a deadline
             interrupts even a pathologically power-bound schedule. *)
          if cancelled () then
            raise (Stop (Infeasible { node = -1; reason = "cancelled" }));
          let d = latency.(i) and p = power.(i) in
          if t + d > horizon then
            raise
              (Stop
                 (Infeasible
                    {
                      node = id i;
                      reason = no_slot_reason ~est:est.(i) ~latency:d ~horizon;
                    }));
          if fits ledger ~start:t ~latency:d ~power:p ~limit:power_limit
          then begin
            pop ready.(c) ~rank:op_rank;
            place i t;
            if ready.(c).size > 0 then sift_down awake ~rank:class_rank 0
            else retire c
          end
          else begin
            (* Every operation of the class fails at every start the
               ledger rejects for this head, now and later in the call,
               so the class sleeps until the next start it admits. With
               none left it wakes just past the last start inside the
               horizon, where its head reports the infeasibility. *)
            let w =
              match
                first_fit ledger ~horizon ~start:t ~latency:d ~power:p
                  ~limit:power_limit
              with
              | Some s -> s
              | None -> horizon - d + 1
            in
            asleep_until.(c) <- w;
            wakes.(w) <- c :: wakes.(w);
            retire c
          end
        done
      done;
      (* One more poll once every operation is placed. *)
      if cancelled () then
        raise (Stop (Infeasible { node = -1; reason = "cancelled" }));
      (* Locked operations may have been placed inconsistently with their
         (possibly later-scheduled) predecessors; reject such schedules,
         reporting the first offending edge in (pred, succ) order. *)
      for p = 0 to n - 1 do
        Array.iter
          (fun s ->
            if is_locked.(s) && start.(p) + latency.(p) > start.(s) then
              raise
                (Stop
                   (Infeasible
                      {
                        node = id s;
                        reason =
                          Printf.sprintf
                            "locked start precedes end of predecessor %d"
                            (id p);
                      })))
          (succs p)
      done;
      Feasible start
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

let adapt fn g ~info ~locked schedule =
  List.iter
    (fun (id, _) ->
      if not (Graph.mem g id) then
        invalid_arg (Printf.sprintf "%s: locked node %d not in graph" fn id))
    locked;
  if
    List.length (List.sort_uniq Int.compare (List.map fst locked))
    <> List.length locked
  then invalid_arg (fn ^ ": node locked twice");
  let n = Graph.node_count g in
  let id i = (Graph.node_at g i).Graph.id in
  let latency = Array.make n 0 and power = Array.make n 0. in
  for i = 0 to n - 1 do
    let { Schedule.latency = d; power = p } = info (id i) in
    latency.(i) <- d;
    power.(i) <- p
  done;
  let at = Array.make n (-1) in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (id, t) -> Hashtbl.replace tbl id t) locked;
  let order = ref [] in
  Hashtbl.iter
    (fun id t ->
      let i = Graph.index g id in
      at.(i) <- t;
      order := i :: !order)
    tbl;
  let overload_node = match locked with (id, _) :: _ -> id | [] -> -1 in
  match
    schedule ~latency ~power ~locked:at
      ~lock_order:(Array.of_list (List.rev !order))
      ~overload_node
  with
  | Infeasible { node; reason } -> Infeasible { node; reason }
  | Feasible start ->
    let sched = ref Schedule.empty in
    Array.iteri (fun i t -> sched := Schedule.set !sched (id i) t) start;
    Feasible !sched

let run g ~info ~horizon ?power_limit ?period ?(locked = []) ?cancelled () =
  adapt "Pasap.run" g ~info ~locked
    (fun ~latency ~power ~locked ~lock_order ~overload_node ->
      starts g ~latency ~power ~locked ~lock_order ~overload_node ~horizon
        ?power_limit ?period ?cancelled ())
