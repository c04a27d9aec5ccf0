module Graph = Pchls_dfg.Graph
module Folded = Pchls_power.Folded

let steady_state_peak s ~info ~ii =
  let ledger = Folded.create ~period:ii in
  List.iter
    (fun (id, t) ->
      let { Schedule.latency; power } = info id in
      Folded.add ledger ~start:t ~latency ~power)
    (Schedule.bindings s);
  Folded.peak ledger

let min_feasible_ii g ~info ~horizon ~power_limit =
  let energy =
    List.fold_left
      (fun acc id ->
        let { Schedule.latency; power } = info id in
        acc +. (float_of_int latency *. power))
      0. (Graph.node_ids g)
  in
  let lower =
    if Float.is_finite power_limit && power_limit > 0. then
      max 1 (int_of_float (Float.ceil (energy /. power_limit)))
    else 1
  in
  let rec search ii =
    if ii > horizon then None
    else
      match Pasap.run g ~info ~horizon ~power_limit ~period:ii () with
      | Pasap.Feasible s -> Some (ii, s)
      | Pasap.Infeasible _ -> search (ii + 1)
  in
  search lower
