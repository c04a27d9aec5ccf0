module Json = Pchls_obs.Json

type severity = Error | Warning | Info
type layer = Dfg | Schedule | Binding | Netlist

type entity =
  | Node of int
  | Edge of int * int
  | Kind of string
  | Instance of int
  | Register of int
  | Step of int
  | Design

type t = {
  code : string;
  severity : severity;
  layer : layer;
  entity : entity;
  message : string;
}

let make severity ~code ~layer ~entity fmt =
  Printf.ksprintf (fun message -> { code; severity; layer; entity; message }) fmt

let errorf ~code ~layer ~entity fmt = make Error ~code ~layer ~entity fmt
let warningf ~code ~layer ~entity fmt = make Warning ~code ~layer ~entity fmt
let infof ~code ~layer ~entity fmt = make Info ~code ~layer ~entity fmt

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let layer_to_string = function
  | Dfg -> "dfg"
  | Schedule -> "schedule"
  | Binding -> "binding"
  | Netlist -> "netlist"

let entity_to_string = function
  | Node id -> Printf.sprintf "node %d" id
  | Edge (src, dst) -> Printf.sprintf "edge %d->%d" src dst
  | Kind k -> Printf.sprintf "kind %s" k
  | Instance id -> Printf.sprintf "instance %d" id
  | Register r -> Printf.sprintf "register %d" r
  | Step s -> Printf.sprintf "step %d" s
  | Design -> "design"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let layer_rank = function Dfg -> 0 | Schedule -> 1 | Binding -> 2 | Netlist -> 3

let entity_rank = function
  | Design -> (0, 0, 0, "")
  | Node id -> (1, id, 0, "")
  | Edge (s, d) -> (2, s, d, "")
  | Kind k -> (3, 0, 0, k)
  | Instance id -> (4, id, 0, "")
  | Register r -> (5, r, 0, "")
  | Step s -> (6, s, 0, "")

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = Int.compare (layer_rank a.layer) (layer_rank b.layer) in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c
      else
        let c = Stdlib.compare (entity_rank a.entity) (entity_rank b.entity) in
        if c <> 0 then c else String.compare a.message b.message

let sort ds = List.sort_uniq compare ds

let count sev ds =
  List.length (List.filter (fun d -> d.severity = sev) ds)

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let to_string d =
  Printf.sprintf "%s[%s] %s %s: %s"
    (severity_to_string d.severity)
    d.code (layer_to_string d.layer)
    (entity_to_string d.entity)
    d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)

let to_json d =
  Printf.sprintf
    {|{"code":"%s","severity":"%s","layer":"%s","entity":"%s","message":"%s"}|}
    (Json.escape d.code)
    (severity_to_string d.severity)
    (layer_to_string d.layer)
    (Json.escape (entity_to_string d.entity))
    (Json.escape d.message)

let list_to_json = function
  | [] -> "[]"
  | ds ->
    let items = List.map (fun d -> "  " ^ to_json d) ds in
    "[\n" ^ String.concat ",\n" items ^ "\n]"

let registry =
  [
    ("DFG001", Error, "the dependency graph contains a cycle");
    ("DFG002", Error, "an edge endpoint names an unknown node");
    ("DFG003", Error, "a data-dependency edge is duplicated");
    ("DFG004", Error, "an edge is a self-loop");
    ("DFG005", Error, "a node id is negative or duplicated");
    ("DFG006", Error, "an operation kind has no implementing module in the library");
    ("DFG007", Warning, "a non-output sink: the computed value is never consumed");
    ("SCH001", Error, "a graph node has no start time");
    ("SCH002", Error, "an operation starts before cycle 0");
    ("SCH003", Error, "an operation starts before a predecessor finishes");
    ("SCH004", Error, "the makespan exceeds the time constraint T");
    ("SCH005", Error, "a cycle draws more than the power constraint P<");
    ("SCH006", Error, "op_info reports a non-positive latency");
    ("SCH007", Warning, "the schedule holds a start time for a node not in the graph");
    ("BND001", Error, "two operations overlap in time on one shared instance");
    ("BND002", Error, "an operation's kind is not implementable by its bound module");
    ("BND003", Error, "a module type exceeds its max_instances cap");
    ("BND004", Error, "two values with overlapping lifetimes share a register");
    ("BND005", Error, "an operation is bound to more than one instance");
    ("BND006", Error, "a binding names an operation not present in the graph");
    ("BND007", Error, "a graph operation is bound to no instance");
    ("BND008", Warning, "an instance hosts no operation (dead functional unit)");
    ("NET001", Error, "a multiply-written register's writer set (mux wiring) is wrong");
    ("NET002", Error, "a functional unit's source-register wiring disagrees with the design");
    ("NET003", Error, "the activation table is inconsistent with the schedule");
    ("NET004", Warning, "a register is dangling: never written or never read");
    ("NET005", Error, "the netlist references an unknown functional unit or register");
    ("PRE001", Error, "an operation kind has no module admissible under the power constraint P<");
    ("PRE002", Error, "the minimum-latency critical path already exceeds the time constraint T");
    ("PRE003", Error, "operations pinned to one cycle must together draw more than P<");
    ("PRE004", Error, "the total minimum execution energy exceeds the T * P< capacity");
    ("PRE005", Info, "preflight bounds summary: latency, power-demand and area bounds");
  ]

let describe code =
  List.find_map
    (fun (c, _, d) -> if String.equal c code then Some d else None)
    registry
