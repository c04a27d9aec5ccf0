module Int_set = Set.Make (Int)

type node = { id : int; name : string; kind : Op.kind }

(* Nodes sit at indices 0..n-1 in ascending id order. [preds], [succs]
   (each ascending) and [topo] hold indices. Nothing is mutated after
   [create], so domains may read one graph at the same time. *)
type t = {
  name : string;
  nodes : node array;
  preds : int array array;
  succs : int array array;
  topo : int array;
  edge_count : int;
}

(* The index of [id] in [nodes], or -1. Ids ascend, so a graph numbered
   0..n-1 holds [id] at index [id]; any other is a binary search. *)
let slot nodes id =
  let n = Array.length nodes in
  if id >= 0 && id < n && nodes.(id).id = id then id
  else
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let m = nodes.(mid).id in
        if m = id then mid
        else if m < id then search (mid + 1) hi
        else search lo mid
    in
    search 0 n

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt

(* Kahn's algorithm with a smallest-index-first frontier so the order is
   deterministic. A node never freed lies on a cycle or downstream of
   one; the error names the smallest. *)
let kahn_order nodes preds succs =
  let n = Array.length preds in
  let indegree = Array.map Array.length preds in
  let order = Array.make n 0 in
  let rec go frontier k =
    match Int_set.min_elt_opt frontier with
    | None -> k
    | Some i ->
      order.(k) <- i;
      let free f s =
        indegree.(s) <- indegree.(s) - 1;
        if indegree.(s) = 0 then Int_set.add s f else f
      in
      go (Array.fold_left free (Int_set.remove i frontier) succs.(i)) (k + 1)
  in
  let sources = Seq.filter (fun i -> indegree.(i) = 0) (Seq.init n Fun.id) in
  if go (Int_set.of_seq sources) 0 < n then begin
    let i = Option.get (Array.find_index (fun d -> d > 0) indegree) in
    malformed "graph has a cycle through node %d" nodes.(i).id
  end;
  order

(* The checks run in a fixed order and the first failure is the error. *)
let create ~name ~nodes ~edges =
  let seen = Hashtbl.create 64 in
  match
    List.iter
      (fun v ->
        if v.id < 0 then malformed "node %S has negative id %d" v.name v.id;
        if Hashtbl.mem seen v.id then malformed "duplicate node id %d" v.id;
        Hashtbl.replace seen v.id ())
      nodes;
    List.iter
      (fun (a, b) ->
        if not (Hashtbl.mem seen a) then
          malformed "edge (%d, %d): unknown source %d" a b a;
        if not (Hashtbl.mem seen b) then
          malformed "edge (%d, %d): unknown target %d" a b b;
        if a = b then malformed "self-loop on node %d" a)
      edges;
    let sorted_edges = List.sort_uniq compare edges in
    if List.compare_lengths sorted_edges edges <> 0 then
      malformed "duplicate edge";
    let nodes = Array.of_list nodes in
    Array.sort (fun a b -> Int.compare a.id b.id) nodes;
    (* Prepending the edges in descending order leaves each list ascending. *)
    let preds = Array.make (Array.length nodes) []
    and succs = Array.make (Array.length nodes) [] in
    List.iter
      (fun (a, b) ->
        let i = slot nodes a and j = slot nodes b in
        succs.(i) <- j :: succs.(i);
        preds.(j) <- i :: preds.(j))
      (List.rev sorted_edges);
    let preds = Array.map Array.of_list preds
    and succs = Array.map Array.of_list succs in
    Array.iteri
      (fun i v ->
        match v.kind with
        | Op.Input when preds.(i) <> [||] ->
          malformed "input node %d (%s) has a predecessor" v.id v.name
        | Op.Output when succs.(i) <> [||] ->
          malformed "output node %d (%s) has a successor" v.id v.name
        | Op.Input | Op.Output | Op.Add | Op.Sub | Op.Mult | Op.Comp -> ())
      nodes;
    let topo = kahn_order nodes preds succs in
    { name; nodes; preds; succs; topo; edge_count = List.length sorted_edges }
  with
  | g -> Ok g
  | exception Malformed msg -> Error msg

let create_exn ~name ~nodes ~edges =
  match create ~name ~nodes ~edges with
  | Ok g -> g
  | Error msg -> invalid_arg (Printf.sprintf "Graph.create_exn (%s): %s" name msg)

let name g = g.name
let node_count g = Array.length g.nodes
let edge_count g = g.edge_count
let node_at g i = g.nodes.(i)
let pred_indices g i = g.preds.(i)
let succ_indices g i = g.succs.(i)

let index g id =
  match slot g.nodes id with -1 -> raise Not_found | i -> i

let mem g id = slot g.nodes id >= 0
let node g id = g.nodes.(index g id)

let find_node g id =
  match slot g.nodes id with -1 -> None | i -> Some g.nodes.(i)

let kind g id = (node g id).kind
let node_name g id = (node g id).name

(* The ids at indices [is], in their order. *)
let ids g is = Array.fold_right (fun i acc -> g.nodes.(i).id :: acc) is []

let nodes g = Array.to_list g.nodes
let node_ids g = List.map (fun v -> v.id) (nodes g)

(* The ids whose index satisfies [keep], ascending. *)
let ids_where g keep = List.filteri (fun i _ -> keep i) (node_ids g)
let succs g id = ids g g.succs.(index g id)
let preds g id = ids g g.preds.(index g id)

let edges g =
  List.concat_map
    (fun v -> List.map (fun s -> (v.id, s)) (succs g v.id))
    (nodes g)

let is_edge g ~src ~dst =
  match (slot g.nodes src, slot g.nodes dst) with
  | -1, _ | _, -1 -> false
  | i, j -> Array.mem j g.succs.(i)

let sources g = ids_where g (fun i -> g.preds.(i) = [||])
let sinks g = ids_where g (fun i -> g.succs.(i) = [||])
let topological_order g = ids g g.topo
let nodes_of_kind g k = ids_where g (fun i -> Op.equal g.nodes.(i).kind k)

let kind_counts g =
  let tally =
    List.map (fun k -> (k, List.length (nodes_of_kind g k))) Op.all
  in
  List.filter (fun (_, n) -> n > 0) tally

let reverse g =
  let n = node_count g in
  {
    g with
    name = g.name ^ "_rev";
    succs = g.preds;
    preds = g.succs;
    topo = Array.init n (fun k -> g.topo.(n - 1 - k));
  }

(* The one longest-path pass, consumers first. *)
let longest_paths g ~latency =
  let dist = Array.make (node_count g) 0 in
  for k = Array.length g.topo - 1 downto 0 do
    let i = g.topo.(k) in
    dist.(i) <-
      Array.fold_left (fun acc s -> max acc dist.(s)) 0 g.succs.(i) + latency i
  done;
  dist

let by_id g ~latency i = latency g.nodes.(i).id

(* Paths from a source are paths to a sink of the reversed graph, whose
   pass visits producers first. *)
let from_source g ~latency =
  longest_paths (reverse g) ~latency:(by_id g ~latency)

let critical_path g ~latency = Array.fold_left max 0 (from_source g ~latency)

(* Partial application pays the pass once; each lookup is then an index
   search. *)
let lookup g dist id = dist.(index g id)
let distances_from_source g ~latency = lookup g (from_source g ~latency)

let distances_to_sink g ~latency =
  lookup g (longest_paths g ~latency:(by_id g ~latency))

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
