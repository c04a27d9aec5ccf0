module Graph = Pchls_dfg.Graph
module Design = Pchls_core.Design
module Regalloc = Pchls_core.Regalloc
module Module_spec = Pchls_fulib.Module_spec
module Int_set = Set.Make (Int)

type fu = { fu_id : int; label : string; spec : Module_spec.t }

type t = {
  design_name : string;
  steps : int;
  fus : fu list;
  register_count : int;
  fu_sources : (int * int list) list;
  register_writers : (int * int list) list;
  activations : (int * (int * int) list) list;
}

let of_design design =
  let g = Design.graph design in
  let allocation = Design.register_allocation design in
  let reg_of = Regalloc.register_of allocation in
  let instances = Design.instances design in
  let fus =
    List.map
      (fun (i : Design.instance) ->
        {
          fu_id = i.Design.id;
          label = Printf.sprintf "fu%d_%s" i.Design.id i.Design.spec.Module_spec.name;
          spec = i.Design.spec;
        })
      instances
  in
  let fu_sources =
    List.map
      (fun (i : Design.instance) ->
        let sources =
          List.fold_left
            (fun acc (op, _) ->
              List.fold_left
                (fun acc p -> Int_set.add (reg_of p) acc)
                acc (Graph.preds g op))
            Int_set.empty i.Design.ops
        in
        (i.Design.id, Int_set.elements sources))
      instances
  in
  let register_writers =
    List.init (Array.length allocation) (fun r ->
        let writers =
          List.fold_left
            (fun acc producer ->
              Int_set.add (Design.instance_of design producer).Design.id acc)
            Int_set.empty allocation.(r)
        in
        (r, Int_set.elements writers))
  in
  let activations =
    List.init (Design.time_limit design) (fun step ->
        let starting =
          List.concat_map
            (fun (i : Design.instance) ->
              List.filter_map
                (fun (op, t) ->
                  if t = step then Some (i.Design.id, op) else None)
                i.Design.ops)
            instances
        in
        (step, starting))
  in
  {
    design_name = Graph.name g;
    steps = Design.time_limit design;
    fus;
    register_count = Array.length allocation;
    fu_sources;
    register_writers;
    activations;
  }

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let mux_count n =
  let fu_muxes =
    List.fold_left
      (fun acc (_, sources) ->
        (* A FU needs an input mux when it is fed by more registers than its
           two operand ports. *)
        if List.length sources > 2 then acc + 1 else acc)
      0 n.fu_sources
  in
  let reg_muxes =
    List.fold_left
      (fun acc (_, writers) -> if List.length writers > 1 then acc + 1 else acc)
      0 n.register_writers
  in
  fu_muxes + reg_muxes

let pp ppf n =
  Format.fprintf ppf "@[<v>netlist %s: %d steps, %d FUs, %d registers@,"
    n.design_name n.steps (List.length n.fus) n.register_count;
  List.iter
    (fun f ->
      let sources = List.assoc f.fu_id n.fu_sources in
      Format.fprintf ppf "  %s <- {%s}@," f.label
        (String.concat ", " (List.map (Printf.sprintf "r%d") sources)))
    n.fus;
  Format.fprintf ppf "@]"
