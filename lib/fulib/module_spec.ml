module Op = Pchls_dfg.Op

type t = {
  name : string;
  ops : Op.kind list;
  area : float;
  latency : int;
  power : float;
}

let make ~name ~ops ~area ~latency ~power =
  if name = "" then Error "module name must be non-empty"
  else if ops = [] then Error (Printf.sprintf "module %s implements no operation" name)
  else if List.length (List.sort_uniq Op.compare ops) <> List.length ops then
    Error (Printf.sprintf "module %s lists a duplicate operation" name)
  else if not (Float.is_finite area && Float.is_finite power) then
    Error (Printf.sprintf "module %s has non-finite area/power" name)
  else if area < 0. then Error (Printf.sprintf "module %s has negative area" name)
  else if latency < 1 then
    Error (Printf.sprintf "module %s has latency %d < 1" name latency)
  else if power < 0. then Error (Printf.sprintf "module %s has negative power" name)
  else Ok { name; ops = List.sort Op.compare ops; area; latency; power }

let make_exn ~name ~ops ~area ~latency ~power =
  match make ~name ~ops ~area ~latency ~power with
  | Ok m -> m
  | Error msg -> invalid_arg ("Module_spec.make_exn: " ^ msg)

let implements m k = List.exists (Op.equal k) m.ops
let energy m = m.power *. float_of_int m.latency

let equal a b =
  String.equal a.name b.name
  && List.length a.ops = List.length b.ops
  && List.for_all2 Op.equal a.ops b.ops
  && Float.equal a.area b.area && a.latency = b.latency
  && Float.equal a.power b.power

let pp ppf m =
  Format.fprintf ppf "%s {%s} area=%g clk=%d P=%g" m.name
    (String.concat "," (List.map Op.symbol m.ops))
    m.area m.latency m.power
