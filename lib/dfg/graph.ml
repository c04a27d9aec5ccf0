module Int_map = Map.Make (Int)

type node = { id : int; name : string; kind : Op.kind }

type t = {
  name : string;
  nodes : node Int_map.t;
  succs : int list Int_map.t;
  preds : int list Int_map.t;
  edge_count : int;
  topo : int list;
}

let adjacency ids edges =
  let empty =
    List.fold_left (fun m id -> Int_map.add id [] m) Int_map.empty ids
  in
  let add m (a, b) =
    Int_map.update a
      (function Some l -> Some (b :: l) | None -> Some [ b ])
      m
  in
  let filled = List.fold_left add empty edges in
  Int_map.map (List.sort_uniq Int.compare) filled

(* Kahn's algorithm with a smallest-id-first frontier so the order is
   deterministic. Returns [Error id] naming a node on a cycle. *)
let kahn_order nodes succs preds =
  let module Int_set = Set.Make (Int) in
  let indegree =
    Int_map.map (fun l -> List.length l) preds |> fun m ->
    Int_map.fold (fun id _ acc -> acc |> Int_map.add id (Int_map.find id m)) nodes Int_map.empty
  in
  let frontier =
    Int_map.fold
      (fun id deg acc -> if deg = 0 then Int_set.add id acc else acc)
      indegree Int_set.empty
  in
  let rec go frontier indegree acc =
    match Int_set.min_elt_opt frontier with
    | None ->
      if List.length acc = Int_map.cardinal nodes then Ok (List.rev acc)
      else
        let on_cycle =
          Int_map.fold
            (fun id deg found ->
              match found with Some _ -> found | None -> if deg > 0 then Some id else None)
            indegree None
        in
        (match on_cycle with
        | Some id -> Error id
        | None -> Ok (List.rev acc) (* unreachable: counts matched *))
    | Some id ->
      let frontier = Int_set.remove id frontier in
      let frontier, indegree =
        List.fold_left
          (fun (f, d) s ->
            let deg = Int_map.find s d - 1 in
            let d = Int_map.add s deg d in
            if deg = 0 then (Int_set.add s f, d) else (f, d))
          (frontier, indegree)
          (Int_map.find id succs)
      in
      go frontier indegree (id :: acc)
  in
  go frontier indegree []

let create ~name ~nodes ~edges =
  let ( let* ) = Result.bind in
  let* node_map =
    List.fold_left
      (fun acc n ->
        let* m = acc in
        if n.id < 0 then Error (Printf.sprintf "node %S has negative id %d" n.name n.id)
        else if Int_map.mem n.id m then
          Error (Printf.sprintf "duplicate node id %d" n.id)
        else Ok (Int_map.add n.id n m))
      (Ok Int_map.empty) nodes
  in
  let* () =
    List.fold_left
      (fun acc (a, b) ->
        let* () = acc in
        if not (Int_map.mem a node_map) then
          Error (Printf.sprintf "edge (%d, %d): unknown source %d" a b a)
        else if not (Int_map.mem b node_map) then
          Error (Printf.sprintf "edge (%d, %d): unknown target %d" a b b)
        else if a = b then Error (Printf.sprintf "self-loop on node %d" a)
        else Ok ())
      (Ok ()) edges
  in
  let sorted_edges = List.sort_uniq compare edges in
  let* () =
    if List.length sorted_edges <> List.length edges then
      Error "duplicate edge"
    else Ok ()
  in
  let ids = List.map (fun n -> n.id) nodes in
  let succs = adjacency ids sorted_edges in
  let preds = adjacency ids (List.map (fun (a, b) -> (b, a)) sorted_edges) in
  let* () =
    Int_map.fold
      (fun id n acc ->
        let* () = acc in
        match n.kind with
        | Op.Input when Int_map.find id preds <> [] ->
          Error (Printf.sprintf "input node %d (%s) has a predecessor" id n.name)
        | Op.Output when Int_map.find id succs <> [] ->
          Error (Printf.sprintf "output node %d (%s) has a successor" id n.name)
        | Op.Input | Op.Output | Op.Add | Op.Sub | Op.Mult | Op.Comp -> Ok ())
      node_map (Ok ())
  in
  let* topo =
    match kahn_order node_map succs preds with
    | Ok order -> Ok order
    | Error id -> Error (Printf.sprintf "graph has a cycle through node %d" id)
  in
  Ok
    {
      name;
      nodes = node_map;
      succs;
      preds;
      edge_count = List.length sorted_edges;
      topo;
    }

let create_exn ~name ~nodes ~edges =
  match create ~name ~nodes ~edges with
  | Ok g -> g
  | Error msg -> invalid_arg (Printf.sprintf "Graph.create_exn (%s): %s" name msg)

let name g = g.name
let node_count g = Int_map.cardinal g.nodes
let edge_count g = g.edge_count
let nodes g = Int_map.bindings g.nodes |> List.map snd
let node_ids g = Int_map.bindings g.nodes |> List.map fst
let mem g id = Int_map.mem id g.nodes

let node g id =
  match Int_map.find_opt id g.nodes with
  | Some n -> n
  | None -> raise Not_found

let find_node g id = Int_map.find_opt id g.nodes
let kind g id = (node g id).kind
let node_name g id = (node g id).name

let edges g =
  Int_map.fold
    (fun a bs acc -> List.fold_left (fun acc b -> (a, b) :: acc) acc bs)
    g.succs []
  |> List.sort compare

let succs g id =
  match Int_map.find_opt id g.succs with Some l -> l | None -> raise Not_found

let preds g id =
  match Int_map.find_opt id g.preds with Some l -> l | None -> raise Not_found

let is_edge g ~src ~dst = mem g src && List.mem dst (succs g src)

let sources g =
  Int_map.fold (fun id ps acc -> if ps = [] then id :: acc else acc) g.preds []
  |> List.rev

let sinks g =
  Int_map.fold (fun id ss acc -> if ss = [] then id :: acc else acc) g.succs []
  |> List.rev

let topological_order g = g.topo

let nodes_of_kind g k =
  Int_map.fold
    (fun id n acc -> if Op.equal n.kind k then id :: acc else acc)
    g.nodes []
  |> List.rev

let kind_counts g =
  let tally =
    List.map (fun k -> (k, List.length (nodes_of_kind g k))) Op.all
  in
  List.filter (fun (_, n) -> n > 0) tally

(* The two longest-path passes, as maps: [from_source] ends at each node,
   producers first; [to_sink] starts at each node, consumers first. *)
let from_source g ~latency =
  List.fold_left
    (fun dist id ->
      let via_pred =
        List.fold_left
          (fun best p -> max best (Int_map.find p dist))
          0 (preds g id)
      in
      Int_map.add id (via_pred + latency id) dist)
    Int_map.empty g.topo

let to_sink g ~latency =
  List.fold_left
    (fun dist id ->
      let via_succ =
        List.fold_left
          (fun best s -> max best (Int_map.find s dist))
          0 (succs g id)
      in
      Int_map.add id (via_succ + latency id) dist)
    Int_map.empty (List.rev g.topo)

let critical_path g ~latency =
  if node_count g = 0 then 0
  else Int_map.fold (fun _ d best -> max d best) (from_source g ~latency) 0

(* Partial application pays the pass once; each lookup is then a map find. *)
let lookup dist id =
  match Int_map.find_opt id dist with Some d -> d | None -> raise Not_found

let distances_from_source g ~latency = lookup (from_source g ~latency)
let distances_to_sink g ~latency = lookup (to_sink g ~latency)

let reverse g =
  {
    name = g.name ^ "_rev";
    nodes = g.nodes;
    succs = g.preds;
    preds = g.succs;
    edge_count = g.edge_count;
    topo = List.rev g.topo;
  }

let pp ppf g =
  Format.fprintf ppf "@[<v>graph %s: %d nodes, %d edges@," g.name (node_count g)
    (edge_count g);
  List.iter
    (fun n ->
      Format.fprintf ppf "  %3d %-10s %-6s -> %s@," n.id n.name
        (Op.to_string n.kind)
        (String.concat ", " (List.map string_of_int (succs g n.id))))
    (nodes g);
  Format.fprintf ppf "@]"
