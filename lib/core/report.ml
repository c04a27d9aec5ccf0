module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Module_spec = Pchls_fulib.Module_spec
module Schedule = Pchls_sched.Schedule
module Profile = Pchls_power.Profile

type row = {
  op : int;
  name : string;
  kind : Op.kind;
  instance : int;
  module_name : string;
  start : int;
  finish : int;
  register : int option;
}

let rows d =
  let g = Design.graph d in
  let register_of = Regalloc.register_of (Design.register_allocation d) in
  List.map
    (fun (node : Graph.node) ->
      let inst = Design.instance_of d node.Graph.id in
      let start = Schedule.start (Design.schedule d) node.Graph.id in
      let register =
        match Graph.succs g node.Graph.id with
        | [] -> None
        | _ :: _ -> Some (register_of node.Graph.id)
      in
      {
        op = node.Graph.id;
        name = node.Graph.name;
        kind = node.Graph.kind;
        instance = inst.Design.id;
        module_name = inst.Design.spec.Module_spec.name;
        start;
        finish = start + inst.Design.spec.Module_spec.latency;
        register;
      })
    (Graph.nodes g)

let csv d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "op,name,kind,instance,module,start,finish,register\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%d,%s,%d,%d,%s\n" r.op r.name
           (Op.to_string r.kind) r.instance r.module_name r.start r.finish
           (match r.register with Some reg -> string_of_int reg | None -> "")))
    (rows d);
  Buffer.contents buf

let summary_csv d =
  let a = Design.area d in
  Printf.sprintf
    "graph,time_limit,power_limit,makespan,peak,energy,area_fu,area_reg,area_mux,area_total,instances,registers,mux_inputs\n\
     %s,%d,%g,%d,%g,%g,%g,%g,%g,%g,%d,%d,%d\n"
    (Graph.name (Design.graph d))
    (Design.time_limit d) (Design.power_limit d) (Design.makespan d)
    (Profile.peak (Design.profile d))
    (Design.energy d) a.Design.fu a.Design.registers a.Design.mux
    a.Design.total
    (List.length (Design.instances d))
    (Design.register_count d)
    (Interconnect.total (Design.mux_inputs d))
