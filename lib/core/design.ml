module Graph = Pchls_dfg.Graph
module Module_spec = Pchls_fulib.Module_spec
module Schedule = Pchls_sched.Schedule
module Profile = Pchls_power.Profile
module Diag = Pchls_diag.Diag
module Int_map = Map.Make (Int)

type instance = {
  id : int;
  spec : Module_spec.t;
  ops : (int * int) list;
}

type area_breakdown = {
  fu : float;
  registers : float;
  mux : float;
  total : float;
}

type t = {
  graph : Graph.t;
  time_limit : int;
  power_limit : float;
  instances : instance array; (* by id *)
  schedule : Schedule.t;
  binding : int Int_map.t; (* op -> instance id *)
  register_allocation : int list array;
  mux_inputs : Interconnect.summary;
  area : area_breakdown;
}

let graph d = d.graph
let time_limit d = d.time_limit
let power_limit d = d.power_limit
let instances d = Array.to_list d.instances
let schedule d = d.schedule
let instance_of d op = d.instances.(Int_map.find op d.binding)

let info d op =
  let spec = (instance_of d op).spec in
  { Schedule.latency = spec.Module_spec.latency; power = spec.Module_spec.power }

let register_allocation d = d.register_allocation
let register_count d = Array.length d.register_allocation
let mux_inputs d = d.mux_inputs
let area d = d.area

let profile d =
  Schedule.profile d.schedule ~info:(info d) ~horizon:d.time_limit

let makespan d = Schedule.makespan d.schedule ~info:(info d)

let energy_breakdown d =
  List.map
    (fun i ->
      ( i.id,
        float_of_int (List.length i.ops)
        *. Module_spec.energy i.spec ))
    (instances d)

let energy d = List.fold_left (fun acc (_, e) -> acc +. e) 0. (energy_breakdown d)

(* Execution intervals on one instance must not overlap. *)
let overlap_on_instance spec ops =
  let d = spec.Module_spec.latency in
  let sorted = List.sort (fun (_, a) (_, b) -> Int.compare a b) ops in
  let rec scan = function
    | (op1, t1) :: ((op2, t2) :: _ as rest) ->
      if t1 + d > t2 then Some (op1, op2) else scan rest
    | [ _ ] | [] -> None
  in
  scan sorted

let assemble ~cost_model ~graph ~time_limit ~power_limit ~instances =
  let ( let* ) = Result.bind in
  (* Every assembly error renders a diagnostic, so messages carry the same
     stable codes as the Pchls_analysis checkers (see docs/DIAGNOSTICS.md). *)
  let err d = Error (Diag.to_string d) in
  let instances =
    List.mapi
      (fun id (spec, ops) ->
        { id; spec; ops = List.sort (fun (_, a) (_, b) -> Int.compare a b) ops })
      instances
  in
  (* Binding: every operation on exactly one instance, kinds implemented. *)
  let* binding =
    List.fold_left
      (fun acc inst ->
        let* b = acc in
        List.fold_left
          (fun acc (op, _) ->
            let* b = acc in
            if not (Graph.mem graph op) then
              err
                (Diag.errorf ~code:"BND006" ~layer:Binding
                   ~entity:(Instance inst.id)
                   "instance %d (%s) binds unknown op %d" inst.id
                   inst.spec.Module_spec.name op)
            else
              match Int_map.find_opt op b with
              | Some first ->
                err
                  (Diag.errorf ~code:"BND005" ~layer:Binding ~entity:(Node op)
                     "op %d bound to instances %d and %d" op first inst.id)
              | None ->
                if
                  not (Module_spec.implements inst.spec (Graph.kind graph op))
                then
                  err
                    (Diag.errorf ~code:"BND002" ~layer:Binding
                       ~entity:(Node op)
                       "op %d (%s) not implementable by module %s of instance \
                        %d"
                       op
                       (Pchls_dfg.Op.to_string (Graph.kind graph op))
                       inst.spec.Module_spec.name inst.id)
                else Ok (Int_map.add op inst.id b))
          (Ok b) inst.ops)
      (Ok Int_map.empty) instances
  in
  let* () =
    if Int_map.cardinal binding = Graph.node_count graph then Ok ()
    else
      let missing =
        List.filter (fun id -> not (Int_map.mem id binding)) (Graph.node_ids graph)
      in
      err
        (Diag.errorf ~code:"BND007" ~layer:Binding ~entity:Diag.Design
           "unbound operations: %s"
           (String.concat ", " (List.map string_of_int missing)))
  in
  let* () =
    List.fold_left
      (fun acc inst ->
        let* () = acc in
        match overlap_on_instance inst.spec inst.ops with
        | Some (a, b) ->
          err
            (Diag.errorf ~code:"BND001" ~layer:Binding
               ~entity:(Instance inst.id)
               "ops %d and %d overlap on instance %d (%s)" a b inst.id
               inst.spec.Module_spec.name)
        | None -> Ok ())
      (Ok ()) instances
  in
  let schedule =
    List.fold_left
      (fun s inst ->
        List.fold_left (fun s (op, t) -> Schedule.set s op t) s inst.ops)
      Schedule.empty instances
  in
  let inst_arr = Array.of_list instances in
  let info op =
    let spec = inst_arr.(Int_map.find op binding).spec in
    {
      Schedule.latency = spec.Module_spec.latency;
      power = spec.Module_spec.power;
    }
  in
  let* () =
    match
      Schedule.validate graph schedule ~info ~time_limit ~power_limit ()
    with
    | Ok () -> Ok ()
    | Error ds -> (
      match List.filter (fun d -> d.Diag.severity = Diag.Error) ds with
      | d :: _ -> Error (Diag.to_string d)
      | [] -> Error "validation failed")
  in
  let register_allocation =
    Regalloc.left_edge (Regalloc.lifetimes graph schedule ~info)
  in
  let mux_inputs =
    Interconnect.estimate graph
      ~binding:(fun op -> Int_map.find op binding)
      ~instance_ops:(fun i -> List.map fst inst_arr.(i).ops)
      ~register_of:(Regalloc.register_of register_allocation)
      ~num_instances:(Array.length inst_arr)
  in
  let fu =
    List.fold_left (fun acc i -> acc +. i.spec.Module_spec.area) 0. instances
  in
  let registers =
    cost_model.Cost_model.register_area
    *. float_of_int (Array.length register_allocation)
  in
  let mux =
    cost_model.Cost_model.mux_input_area
    *. float_of_int (Interconnect.total mux_inputs)
  in
  let area = { fu; registers; mux; total = fu +. registers +. mux } in
  Ok
    {
      graph;
      time_limit;
      power_limit;
      instances = inst_arr;
      schedule;
      binding;
      register_allocation;
      mux_inputs;
      area;
    }

let pp ppf d =
  Format.fprintf ppf "@[<v>design for %s: T=%d P<=%g@," (Graph.name d.graph)
    d.time_limit d.power_limit;
  Format.fprintf ppf "area: fu=%.0f reg=%.0f mux=%.0f total=%.0f@," d.area.fu
    d.area.registers d.area.mux d.area.total;
  Format.fprintf ppf "%d instances, %d registers, %d mux inputs@,"
    (Array.length d.instances)
    (register_count d)
    (Interconnect.total d.mux_inputs);
  List.iter
    (fun i ->
      Format.fprintf ppf "  [%d] %-9s %s@," i.id i.spec.Module_spec.name
        (String.concat " "
           (List.map
              (fun (op, t) ->
                Printf.sprintf "%s@%d" (Graph.node_name d.graph op) t)
              i.ops)))
    (instances d);
  Format.fprintf ppf "@]"
