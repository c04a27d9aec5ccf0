module Graph = Pchls_dfg.Graph
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics

let m_runs = Metrics.counter "palap.runs"

(* palap is pasap on the reversed graph, which keeps [g]'s indices, so its
   span encloses a pasap.run span and its delay bumps land in the shared
   pasap.offset_delays counter. Locks are mirrored in [lock_order], which
   always reaches pasap explicitly: a forward lock past the horizon
   mirrors to a negative start, possibly -1, that pasap must still see as
   a lock and reject. *)
let starts g ~latency ~power ~locked ?lock_order ?overload_node ~horizon
    ?power_limit ?cancelled () =
  let n = Graph.node_count g in
  if Array.length latency <> n || Array.length locked <> n then
    invalid_arg "Palap.starts: an array's length is not the node count";
  Metrics.incr m_runs;
  Trace.span ~cat:"sched" "palap.run" @@ fun () ->
  let mirror i t = horizon - t - latency.(i) in
  let lock_order =
    match lock_order with
    | Some o -> o
    | None ->
      Array.of_list
        (List.filter (fun i -> locked.(i) <> -1) (List.init n Fun.id))
  in
  let mirrored = Array.make n (-1) in
  Array.iter (fun i -> mirrored.(i) <- mirror i locked.(i)) lock_order;
  match
    Pasap.starts (Graph.reverse g) ~latency ~power ~locked:mirrored
      ~lock_order ?overload_node ~horizon ?power_limit ?cancelled ()
  with
  | Pasap.Infeasible _ as inf -> inf
  | Pasap.Feasible rev ->
    Array.iteri (fun i t -> rev.(i) <- mirror i t) rev;
    Pasap.Feasible rev

let run g ~info ~horizon ?power_limit ?(locked = []) ?cancelled () =
  Pasap.adapt "Palap.run" g ~info ~locked
    (fun ~latency ~power ~locked ~lock_order ~overload_node ->
      starts g ~latency ~power ~locked ~lock_order ~overload_node ~horizon
        ?power_limit ?cancelled ())
