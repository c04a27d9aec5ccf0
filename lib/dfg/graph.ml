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

(* A binary min-heap of indices, the frontier of [kahn_order]. *)
type heap = { slots : int array; mutable size : int }

let rec sift_up h j =
  let parent = (j - 1) / 2 in
  let x = h.slots.(j) in
  if j > 0 && x < h.slots.(parent) then begin
    h.slots.(j) <- h.slots.(parent);
    h.slots.(parent) <- x;
    sift_up h parent
  end

let rec sift_down h j =
  let l = (2 * j) + 1 in
  if l < h.size then begin
    let c = if l + 1 < h.size && h.slots.(l + 1) < h.slots.(l) then l + 1 else l in
    let x = h.slots.(j) in
    if h.slots.(c) < x then begin
      h.slots.(j) <- h.slots.(c);
      h.slots.(c) <- x;
      sift_down h c
    end
  end

let push h i =
  h.slots.(h.size) <- i;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  let top = h.slots.(0) in
  h.size <- h.size - 1;
  h.slots.(0) <- h.slots.(h.size);
  sift_down h 0;
  top

(* Kahn's algorithm with a smallest-index-first frontier so the order is
   deterministic. A node never freed lies on a cycle or downstream of
   one; the error names the smallest. *)
let kahn_order nodes preds succs =
  let n = Array.length preds in
  let indegree = Array.map Array.length preds in
  let frontier = { slots = Array.make n 0; size = 0 } in
  Array.iteri (fun i d -> if d = 0 then push frontier i) indegree;
  let order = Array.make n 0 in
  let k = ref 0 in
  while frontier.size > 0 do
    let i = pop frontier in
    order.(!k) <- i;
    incr k;
    Array.iter
      (fun s ->
        indegree.(s) <- indegree.(s) - 1;
        if indegree.(s) = 0 then push frontier s)
      succs.(i)
  done;
  if !k < n then begin
    let i = Option.get (Array.find_index (fun d -> d > 0) indegree) in
    malformed "graph has a cycle through node %d" nodes.(i).id
  end;
  order

(* For each of the [n] keys, the [values] paired with it in [keys], in
   their order. *)
let rows n keys values =
  let count = Array.make n 0 in
  Array.iter (fun i -> count.(i) <- count.(i) + 1) keys;
  let rows = Array.map (fun d -> Array.make d 0) count in
  Array.fill count 0 n 0;
  Array.iteri
    (fun k i ->
      rows.(i).(count.(i)) <- values.(k);
      count.(i) <- count.(i) + 1)
    keys;
  rows

(* The checks run in a fixed order and the first failure is the error.
   Ids and edges are compared by sorting, never by hashing, so no choice
   of ids slows construction past O((n + e) log (n + e)). *)
let create ~name ~nodes ~edges =
  let listed = Array.of_list nodes in
  let n = Array.length listed in
  match
    (* List positions by id. Equal ids keep their list order, so every
       position after the first of a run repeats an earlier id. The
       first node in list order that is negative or a repeat fails. *)
    let by_id = Array.init n Fun.id in
    Array.stable_sort (fun p q -> Int.compare listed.(p).id listed.(q).id) by_id;
    let first = ref n in
    Array.iteri
      (fun k p ->
        let v = listed.(p) in
        if (v.id < 0 || (k > 0 && listed.(by_id.(k - 1)).id = v.id)) && p < !first
        then first := p)
      by_id;
    if !first < n then begin
      let v = listed.(!first) in
      if v.id < 0 then malformed "node %S has negative id %d" v.name v.id;
      malformed "duplicate node id %d" v.id
    end;
    let nodes = Array.map (fun p -> listed.(p)) by_id in
    let edge_count = List.length edges in
    let src = Array.make edge_count 0 and dst = Array.make edge_count 0 in
    List.iteri
      (fun k (a, b) ->
        let i = slot nodes a in
        if i < 0 then malformed "edge (%d, %d): unknown source %d" a b a;
        let j = slot nodes b in
        if j < 0 then malformed "edge (%d, %d): unknown target %d" a b b;
        if i = j then malformed "self-loop on node %d" a;
        src.(k) <- i;
        dst.(k) <- j)
      edges;
    let succs = rows n src dst and preds = rows n dst src in
    Array.iter (Array.stable_sort Int.compare) preds;
    (* A sorted row holds a repeated edge side by side. *)
    Array.iter
      (fun row ->
        Array.stable_sort Int.compare row;
        for k = 1 to Array.length row - 1 do
          if row.(k) = row.(k - 1) then malformed "duplicate edge"
        done)
      succs;
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
    { name; nodes; preds; succs; topo; edge_count }
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
