module Graph = Pchls_dfg.Graph
module Folded = Pchls_power.Folded

exception Stop of Pasap.outcome

(* Structurally the pasap loop (see {!Pasap.run}), with the per-cycle ledger
   replaced by the folded modulo-[ii] ledger. *)
let run g ~info ~ii ~horizon ?(power_limit = infinity) () =
  if ii < 1 then invalid_arg "Modulo.run: ii < 1";
  if horizon < 0 then invalid_arg "Modulo.run: negative horizon";
  let latency id = (info id).Schedule.latency in
  let ledger = Folded.create ~period:ii in
  let sched = ref Schedule.empty in
  let remaining_preds = Hashtbl.create 64 in
  List.iter
    (fun id ->
      Hashtbl.replace remaining_preds id (List.length (Graph.preds g id)))
    (Graph.node_ids g);
  let offsets = Hashtbl.create 64 in
  let ready = Hashtbl.create 64 in
  let enter id =
    if Hashtbl.find remaining_preds id = 0 then begin
      let est =
        List.fold_left
          (fun acc p -> max acc (Schedule.start !sched p + latency p))
          0 (Graph.preds g id)
      in
      Hashtbl.replace ready id est
    end
  in
  List.iter enter (Graph.node_ids g);
  let offset id =
    match Hashtbl.find_opt offsets id with Some o -> o | None -> 0
  in
  let priority = Graph.distances_to_sink g ~latency in
  let better (id_a, t_a) (id_b, t_b) =
    if t_a <> t_b then t_a < t_b
    else
      let pa = priority id_a and pb = priority id_b in
      if pa <> pb then pa > pb else id_a < id_b
  in
  let pick () =
    Hashtbl.fold
      (fun id est best ->
        let cand = (id, est + offset id) in
        match best with
        | None -> Some cand
        | Some b -> if better cand b then Some cand else best)
      ready None
  in
  try
    let rec loop () =
      match pick () with
      | None -> ()
      | Some (id, t) ->
        let d = latency id in
        let power = (info id).Schedule.power in
        if t + d > horizon then
          raise
            (Stop
               (Pasap.Infeasible
                  {
                    node = id;
                    reason =
                      Printf.sprintf
                        "no modulo-%d power-feasible start within horizon %d"
                        ii horizon;
                  }));
        if Folded.fits ledger ~start:t ~latency:d ~power ~limit:power_limit
        then begin
          Folded.add ledger ~start:t ~latency:d ~power;
          sched := Schedule.set !sched id t;
          Hashtbl.remove ready id;
          List.iter
            (fun s ->
              let n = Hashtbl.find remaining_preds s - 1 in
              Hashtbl.replace remaining_preds s n;
              if n = 0 then enter s)
            (Graph.succs g id)
        end
        else Hashtbl.replace offsets id (offset id + 1);
        loop ()
    in
    loop ();
    Pasap.Feasible !sched
  with Stop o -> o

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
      match run g ~info ~ii ~horizon ~power_limit () with
      | Pasap.Feasible s -> Some (ii, s)
      | Pasap.Infeasible _ -> search (ii + 1)
  in
  search lower
