(* Equivalence suites pinning the hot-path rewrite to its naive
   reference semantics: the block-max profile against per-cycle rescans,
   and the incremental compatibility graph against a from-scratch
   rebuild. Each property drives the fast structure and a deliberately
   naive model through the same random operation sequence and requires
   identical answers. On random layered graphs, the graph fingerprint
   must tell apart exactly the pairs its 32-round predecessor does.
   [Graph]'s index arrays must answer every accessor as the map-based
   graph they replaced did, and refuse malformed node and edge lists
   with the same first error.
   Pasap's class loop must place exactly as the priority-queue loop of
   [first_fit] bumps before it, modulo scheduling through that loop
   exactly as the one-cycle-bump loop before it, and an instance's
   sorted-start slot searches exactly as the list scans they replaced.
   The engine's own store-vs-enumeration cross-check runs via
   [~self_check:true] on random syntheses. *)

module H = Test_helpers
module Generator = Pchls_dfg.Generator
module Graph = Pchls_dfg.Graph
module Profile = Pchls_power.Profile
module Schedule = Pchls_sched.Schedule
module Bitset = Pchls_compat.Bitset
module Cgraph = Pchls_compat.Cgraph
module Engine = Pchls_core.Engine
module Library = Pchls_fulib.Library
module Fingerprint = Pchls_cache.Fingerprint
module Op = Pchls_dfg.Op
module Folded = Pchls_power.Folded
module Pasap = Pchls_sched.Pasap
module Palap = Pchls_sched.Palap
module Metrics = Pchls_obs.Metrics
module Slots = Pchls_core.Slots

let table1_info g id = H.table1_info () g id

(* --- Profile: block-max structure == naive per-cycle rescans ----------- *)

(* A profile state: horizon, the adds applied, and the subset of them
   later removed — exercising [remove]'s block rescans too. *)
let profile_gen =
  QCheck.Gen.(
    let* horizon = 1 -- 100 in
    let op =
      let* latency = 1 -- min 8 horizon in
      let* start = 0 -- (horizon - latency) in
      let* power = float_range 0. 10. in
      return (start, latency, power)
    in
    let* ops = list_size (0 -- 40) op in
    let* removed = list (map (fun b -> b) bool) in
    return (horizon, ops, removed))

let build_both (horizon, ops, removed) =
  let p = Profile.create ~horizon in
  let a = Array.make horizon 0. in
  List.iter
    (fun (start, latency, power) ->
      Profile.add p ~start ~latency ~power;
      for c = start to start + latency - 1 do
        a.(c) <- a.(c) +. power
      done)
    ops;
  List.iteri
    (fun i (start, latency, power) ->
      if List.nth_opt removed i = Some true then begin
        Profile.remove p ~start ~latency ~power;
        for c = start to start + latency - 1 do
          (* Mirror Profile.remove's eps-clamp so float residue from a
             matched add/remove pair cancels in both models. *)
          let v = a.(c) -. power in
          a.(c) <- (if Float.abs v < Profile.eps then 0. else v)
        done
      end)
    ops;
  (p, a)

let naive_fits a ~start ~latency ~power ~limit =
  let h = Array.length a in
  start >= 0
  && start + latency <= h
  &&
  let ok = ref true in
  for c = start to start + latency - 1 do
    if a.(c) +. power > limit +. Profile.eps then ok := false
  done;
  !ok

let naive_first_fit a ~start ~latency ~power ~limit =
  let h = Array.length a in
  let rec go s =
    if s + latency > h then None
    else if naive_fits a ~start:s ~latency ~power ~limit then Some s
    else go (s + 1)
  in
  go start

let print_profile_state (horizon, ops, removed) =
  Format.asprintf "horizon=%d ops=[%s] removed=[%s]" horizon
    (String.concat "; "
       (List.map
          (fun (s, l, p) -> Printf.sprintf "(%d,%d,%.3f)" s l p)
          ops))
    (String.concat ";" (List.map string_of_bool removed))

let prop_profile_cells =
  QCheck.Test.make ~name:"profile cells == naive array" ~count:300
    (QCheck.make profile_gen ~print:print_profile_state)
    (fun state ->
      let p, a = build_both state in
      Array.for_all2
        (fun x y -> Float.abs (x -. y) <= 1e-6)
        (Profile.to_array p) a)

let prop_profile_aggregates =
  QCheck.Test.make ~name:"profile peak/busy/energy == naive" ~count:300
    (QCheck.make profile_gen ~print:print_profile_state)
    (fun state ->
      let p, a = build_both state in
      let naive_peak = Array.fold_left Float.max 0. a in
      let naive_busy = ref 0 in
      Array.iteri
        (fun c x -> if x > Profile.eps then naive_busy := c + 1)
        a;
      let naive_energy = Array.fold_left ( +. ) 0. a in
      Float.abs (Profile.peak p -. naive_peak) <= 1e-6
      && Profile.busy_length p = !naive_busy
      && Float.abs (Profile.energy p -. naive_energy) <= 1e-6)

let query_gen =
  QCheck.Gen.(
    let* state = profile_gen in
    let horizon, _, _ = state in
    let* start = 0 -- horizon in
    let* latency = 1 -- 10 in
    let* power = float_range 0. 10. in
    let* limit = float_range 0. 25. in
    return (state, start, latency, power, limit))

let prop_profile_fits =
  QCheck.Test.make ~name:"profile fits == naive rescan" ~count:500
    (QCheck.make query_gen ~print:(fun (state, s, l, pw, lim) ->
         Printf.sprintf "%s query=(%d,%d,%.3f,%.3f)"
           (print_profile_state state) s l pw lim))
    (fun (state, start, latency, power, limit) ->
      let p, a = build_both state in
      Profile.fits p ~start ~latency ~power ~limit
      = naive_fits a ~start ~latency ~power ~limit)

let prop_profile_first_fit =
  QCheck.Test.make ~name:"profile first_fit == naive scan" ~count:500
    (QCheck.make query_gen ~print:(fun (state, s, l, pw, lim) ->
         Printf.sprintf "%s query=(%d,%d,%.3f,%.3f)"
           (print_profile_state state) s l pw lim))
    (fun (state, start, latency, power, limit) ->
      let p, a = build_both state in
      Profile.first_fit p ~start ~latency ~power ~limit
      = naive_first_fit a ~start ~latency ~power ~limit)

(* --- Cgraph: incremental edits == full rebuild ------------------------- *)

(* Random add scripts over a small vertex set, weights replaced on repeat
   pairs. The model replays the same script into a plain association table
   and the final graphs must agree edge-for-edge. *)
let cgraph_gen =
  QCheck.Gen.(
    let* n = 2 -- 24 in
    let edit =
      let* u = 0 -- (n - 1) in
      let* v = 0 -- (n - 1) in
      let* w = float_range (-2.) 5. in
      return (u, (if v = u then (u + 1) mod n else v), w)
    in
    let* edits = list_size (0 -- 80) edit in
    return (n, edits))

let print_cgraph_case (n, edits) =
  Format.asprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map (fun (u, v, w) -> Printf.sprintf "add %d-%d %.3f" u v w) edits))

let prop_cgraph_incremental =
  QCheck.Test.make ~name:"cgraph edits == full rebuild" ~count:300
    (QCheck.make cgraph_gen ~print:print_cgraph_case)
    (fun (n, edits) ->
      let g = Cgraph.create ~n in
      let model : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
      let key u v = if u < v then (u, v) else (v, u) in
      List.iter
        (fun (u, v, w) ->
          Cgraph.add_edge g u v w;
          Hashtbl.replace model (key u v) w)
        edits;
      let rebuilt = Cgraph.create ~n in
      Hashtbl.iter (fun (u, v) w -> Cgraph.add_edge rebuilt u v w) model;
      Cgraph.edges g = Cgraph.edges rebuilt
      && Cgraph.edge_count g = Cgraph.edge_count rebuilt
      && List.for_all
           (fun u -> Cgraph.neighbours g u = Cgraph.neighbours rebuilt u)
           (List.init n Fun.id))

(* --- Bitset: set algebra == Stdlib.Set ---------------------------------- *)

let bitset_gen =
  QCheck.Gen.(
    let* n = 1 -- 200 in
    let* adds = list_size (0 -- 100) (0 -- (n - 1)) in
    return (n, adds))

module Int_set = Set.Make (Int)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset == Set.Make(Int)" ~count:300
    (QCheck.make bitset_gen ~print:(fun (n, adds) ->
         Printf.sprintf "n=%d adds=%s" n
           (String.concat "," (List.map string_of_int adds))))
    (fun (n, adds) ->
      let b = Bitset.create n in
      let m = ref Int_set.empty in
      List.iter
        (fun x ->
          Bitset.add b x;
          m := Int_set.add x !m)
        adds;
      Bitset.to_list b = Int_set.elements !m
      && Bitset.cardinal b = Int_set.cardinal !m
      && Bitset.is_empty b = Int_set.is_empty !m
      && List.for_all
           (fun x -> Bitset.mem b x = Int_set.mem x !m)
           (List.init n Fun.id))

(* --- Fingerprint: stable refinement == the 32-round reference ----------- *)

(* The fingerprint the stable refinement replaced, kept verbatim. Its
   digests differ from the new ones; what must agree is which graphs the
   two tell apart. *)
module Reference_fingerprint = struct
  module Int_map = Map.Make (Int)

  let of_string = Fingerprint.of_string

  (* Weisfeiler-Lehman label refinement. Node ids are used only as map keys,
     never as label content, so the result is invariant under renumbering.
     Enough rounds to propagate position information along chains of
     identically-labelled nodes; capped so huge graphs stay cheap (beyond the
     cap, only nodes further than [max_rounds] hops from any distinguishing
     feature could alias — collisions, not false splits). *)
  let max_rounds = 32

  let graph g =
    let ids = Graph.node_ids g in
    let initial =
      List.fold_left
        (fun m id ->
          let n = Graph.node g id in
          Int_map.add id
            (of_string
               (Printf.sprintf "n:%s:%s" (Op.to_string n.Graph.kind) n.Graph.name))
            m)
        Int_map.empty ids
    in
    let refine labels =
      List.fold_left
        (fun m id ->
          let around neighbours =
            List.map (fun j -> Int_map.find j labels) (neighbours g id)
            |> List.sort String.compare
            |> String.concat ","
          in
          Int_map.add id
            (of_string
               (Int_map.find id labels ^ "|p:" ^ around Graph.preds ^ "|s:"
              ^ around Graph.succs))
            m)
        Int_map.empty ids
    in
    let rec iterate n labels =
      if n = 0 then labels else iterate (n - 1) (refine labels)
    in
    let final = iterate (min (Graph.node_count g) max_rounds) initial in
    let node_sigs =
      List.map (fun id -> Int_map.find id final) ids |> List.sort String.compare
    in
    let edge_sigs =
      Graph.edges g
      |> List.map (fun (a, b) ->
             Int_map.find a final ^ ">" ^ Int_map.find b final)
      |> List.sort String.compare
    in
    of_string
      (String.concat "\n"
         (Printf.sprintf "g:%s" (Graph.name g)
         :: Printf.sprintf "n=%d;e=%d" (Graph.node_count g) (Graph.edge_count g)
         :: (node_sigs @ edge_sigs)))
end

(* A layered graph, optionally with every node named alike so refinement
   has to split classes, and its variants: the ids permuted, one kind
   flipped, one edge dropped, one edge moved, one node renamed and the
   graph renamed. *)
let fingerprint_variants_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* layers = 1 -- 5 in
    let* width = 1 -- 4 in
    let* anonymous = bool in
    let g = Generator.layered ~seed ~layers ~width () in
    let g =
      if anonymous then
        Graph.create_exn ~name:(Graph.name g)
          ~nodes:
            (List.map
               (fun (v : Graph.node) -> { v with Graph.name = "v" })
               (Graph.nodes g))
          ~edges:(Graph.edges g)
      else g
    in
    let nodes = Graph.nodes g and edges = Graph.edges g in
    let rebuild ?(name = Graph.name g) ?(edges = edges) f =
      Graph.create_exn ~name ~nodes:(List.map f nodes) ~edges
    in
    let first_op =
      List.find (fun (v : Graph.node) -> not (Op.is_transfer v.Graph.kind)) nodes
    in
    let flip (v : Graph.node) =
      if v.Graph.id <> first_op.Graph.id then v
      else
        let kind = if v.Graph.kind = Op.Add then Op.Sub else Op.Add in
        { v with Graph.kind }
    in
    let rename (v : Graph.node) =
      if v.Graph.id <> first_op.Graph.id then v
      else { v with Graph.name = v.Graph.name ^ "'" }
    in
    (* The first edge re-pointed at another node of its target's kind,
       where that leaves a DAG: counts, kinds and names stay, so only
       refinement can tell the two apart. *)
    let moved =
      match edges with
      | [] -> g
      | (a, b) :: rest ->
        let kind = (Graph.node g b).Graph.kind in
        List.find_map
          (fun (v : Graph.node) ->
            if v.Graph.kind <> kind || v.Graph.id = b then None
            else
              Result.to_option
                (Graph.create ~name:(Graph.name g) ~nodes
                   ~edges:((a, v.Graph.id) :: rest)))
          nodes
        |> Option.value ~default:g
    in
    return
      [
        g;
        H.permute_ids ~seed g;
        rebuild flip;
        rebuild ~edges:(List.tl edges) Fun.id;
        moved;
        rebuild rename;
        rebuild ~name:(Graph.name g ^ "'") Fun.id;
      ])

let prop_fingerprint_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"Fingerprint.graph splits pairs exactly as the 32-round reference"
    (QCheck.make fingerprint_variants_gen ~print:(fun gs ->
         Format.asprintf "%a" Graph.pp (List.hd gs)))
    (fun gs ->
      let fresh = List.map Fingerprint.graph gs in
      let reference = List.map Reference_fingerprint.graph gs in
      List.for_all2
        (fun f r ->
          List.for_all2
            (fun f' r' -> String.equal f f' = String.equal r r')
            fresh reference)
        fresh reference)

(* --- Graph: dense indices == the map-based graph ----------------------- *)

(* The graph before it stored its nodes at dense indices, kept verbatim:
   nodes, successors and predecessors in [Int_map]s, the topological
   order as a list. *)
module Reference_graph = struct
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
end

(* The accessors [Graph] and its reference share, node records included. *)
module type GRAPH = sig
  type node = { id : int; name : string; kind : Op.kind }
  type t

  val create :
    name:string ->
    nodes:node list ->
    edges:(int * int) list ->
    (t, string) result

  val create_exn :
    name:string -> nodes:node list -> edges:(int * int) list -> t
  val name : t -> string
  val node_count : t -> int
  val edge_count : t -> int
  val nodes : t -> node list
  val node_ids : t -> int list
  val mem : t -> int -> bool
  val node : t -> int -> node
  val find_node : t -> int -> node option
  val kind : t -> int -> Op.kind
  val node_name : t -> int -> string
  val edges : t -> (int * int) list
  val is_edge : t -> src:int -> dst:int -> bool
  val succs : t -> int -> int list
  val preds : t -> int -> int list
  val sources : t -> int list
  val sinks : t -> int list
  val topological_order : t -> int list
  val nodes_of_kind : t -> Op.kind -> int list
  val kind_counts : t -> (Op.kind * int) list
  val critical_path : t -> latency:(int -> int) -> int
  val distances_to_sink : t -> latency:(int -> int) -> int -> int
  val distances_from_source : t -> latency:(int -> int) -> int -> int
  val reverse : t -> t
  val pp : Format.formatter -> t -> unit
end

(* A raw case: what [create] is handed, plus a salt for the latencies. *)
type raw_graph = {
  raw_nodes : (int * string * Op.kind) list;
  raw_edges : (int * int) list;
  salt : int;
}

(* [create]'s answer on [raw] as text: its error with [create_exn]'s, or
   one line per accessor call on the graph, its reverse and its double
   reverse, with [Not_found] spelled out. The ids probed are the listed
   ones, their neighbours and -1, so absent ids are asked about too. *)
module Observe (G : GRAPH) = struct
  let observe raw =
    let nodes =
      List.map (fun (id, name, kind) -> { G.id; name; kind }) raw.raw_nodes
    in
    match G.create ~name:"g" ~nodes ~edges:raw.raw_edges with
    | Error msg -> (
      match G.create_exn ~name:"g" ~nodes ~edges:raw.raw_edges with
      | _ -> Error (msg ^ " / create_exn raised nothing")
      | exception Invalid_argument raised -> Error (msg ^ " / " ^ raised))
    | Ok g ->
      let listed = List.map (fun (id, _, _) -> id) raw.raw_nodes in
      let probes =
        List.sort_uniq Int.compare
          ((-1) :: List.concat_map (fun id -> [ id - 1; id; id + 1 ]) listed)
      in
      let latency id = 1 + (Hashtbl.hash (id, raw.salt) mod 4) in
      let ints l = String.concat "," (List.map string_of_int l) in
      let node (v : G.node) =
        Printf.sprintf "%d:%s:%s" v.G.id v.G.name (Op.to_string v.G.kind)
      in
      let lines = ref [] in
      let say label f =
        let text = try f () with Not_found -> "Not_found" in
        lines := (label ^ " = " ^ text) :: !lines
      in
      let view tag g =
        let say label = say (tag ^ label) in
        say "name" (fun () -> G.name g);
        say "counts" (fun () ->
            Printf.sprintf "%d/%d" (G.node_count g) (G.edge_count g));
        say "nodes" (fun () -> String.concat " " (List.map node (G.nodes g)));
        say "node_ids" (fun () -> ints (G.node_ids g));
        let edge (a, b) = Printf.sprintf "%d>%d" a b in
        say "edges" (fun () -> String.concat " " (List.map edge (G.edges g)));
        say "sources" (fun () -> ints (G.sources g));
        say "sinks" (fun () -> ints (G.sinks g));
        say "topo" (fun () -> ints (G.topological_order g));
        say "kind_counts" (fun () ->
            String.concat " "
              (List.map
                 (fun (k, c) -> Printf.sprintf "%s:%d" (Op.to_string k) c)
                 (G.kind_counts g)));
        List.iter
          (fun k ->
            say ("of_kind " ^ Op.to_string k) (fun () ->
                ints (G.nodes_of_kind g k)))
          Op.all;
        say "critical_path" (fun () ->
            string_of_int (G.critical_path g ~latency));
        say "pp" (fun () -> Format.asprintf "%a" G.pp g);
        let to_sink = G.distances_to_sink g ~latency
        and from_source = G.distances_from_source g ~latency in
        List.iter
          (fun p ->
            let say label = say (Printf.sprintf "%s %d" label p) in
            say "mem" (fun () -> string_of_bool (G.mem g p));
            say "node" (fun () -> node (G.node g p));
            say "find_node" (fun () ->
                Option.fold ~none:"None" ~some:node (G.find_node g p));
            say "kind" (fun () -> Op.to_string (G.kind g p));
            say "node_name" (fun () -> G.node_name g p);
            say "succs" (fun () -> ints (G.succs g p));
            say "preds" (fun () -> ints (G.preds g p));
            say "to_sink" (fun () -> string_of_int (to_sink p));
            say "from_source" (fun () -> string_of_int (from_source p));
            say "is_edge" (fun () ->
                ints
                  (List.filter (fun q -> G.is_edge g ~src:p ~dst:q) probes)))
          probes
      in
      view "" g;
      view "rev " (G.reverse g);
      view "rev rev " (G.reverse (G.reverse g));
      Ok (List.rev !lines)
end

module Observe_graph = Observe (Graph)
module Observe_reference = Observe (Reference_graph)

let raw_of_graph g =
  ( List.map
      (fun (v : Graph.node) -> (v.Graph.id, v.Graph.name, v.Graph.kind))
      (Graph.nodes g),
    Graph.edges g )

(* A graph renumbered and shuffled: a random order of its nodes takes
   ascending ids whose gaps are mostly 1 (so a dense run keeps the direct
   lookup in play) and sometimes wide, from 0 or a random start; the node
   and edge lists are shuffled. [valid_raw_gen] draws it from
   [Generator.sized]. *)
let renumbered_raw_gen g =
  QCheck.Gen.(
    let* order = shuffle_l (Graph.node_ids g) in
    let* gaps =
      list_repeat (Graph.node_count g)
        (frequency [ (8, return 1); (1, 2 -- 9); (1, 10 -- 100_000) ])
    in
    let* first = frequency [ (2, return 0); (1, 0 -- 1000) ] in
    let fresh = Hashtbl.create 64 in
    ignore
      (List.fold_left2
         (fun next id gap ->
           Hashtbl.replace fresh id next;
           next + gap)
         first order gaps);
    let tr id = Hashtbl.find fresh id in
    let nodes, edges = raw_of_graph g in
    let* nodes =
      shuffle_l (List.map (fun (id, n, k) -> (tr id, n, k)) nodes)
    in
    let* edges = shuffle_l (List.map (fun (a, b) -> (tr a, tr b)) edges) in
    return (nodes, edges))

let valid_raw_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* max_nodes = 1 -- 60 in
    renumbered_raw_gen (Generator.sized ~seed ~max_nodes ()))

(* One structural fault, on a valid graph's lists. *)
let fault_gen (nodes, edges) =
  QCheck.Gen.(
    let ids = List.map (fun (id, _, _) -> id) nodes in
    let absent = 1 + List.fold_left max 0 ids in
    let insert x l =
      let* k = 0 -- List.length l in
      return
        (List.filteri (fun i _ -> i < k) l
        @ (x :: List.filteri (fun i _ -> i >= k) l))
    in
    let add_edge e =
      let* edges = insert e edges in
      return (nodes, edges)
    in
    let of_kind k =
      List.filter_map
        (fun (id, _, kind) -> if kind = k then Some id else None)
        nodes
    in
    let ops =
      List.filter
        (fun id -> not (List.mem id (of_kind Op.Input @ of_kind Op.Output)))
        ids
    in
    (* A path of operations that starts with an edge, walked forward along
       random successors; closing it back to its start makes a cycle. *)
    let cycle =
      let op_edges =
        List.filter (fun (a, b) -> List.mem a ops && List.mem b ops) edges
      in
      if op_edges = [] then return (nodes, edges)
      else
        let* a, b = oneofl op_edges in
        let* steps = 0 -- 4 in
        let rec walk v steps =
          let next =
            List.filter_map
              (fun (x, y) -> if x = v && List.mem y ops then Some y else None)
              edges
          in
          if steps = 0 || next = [] then return v
          else
            let* w = oneofl next in
            walk w (steps - 1)
        in
        let* v = walk b steps in
        add_edge (v, a)
    in
    let* pick = oneofl ids in
    let* other = oneofl ids in
    oneof
      [
        (let* neg = 1 -- 5 in
         let negate (id, n, k) = ((if id = pick then -neg else id), n, k) in
         return (List.map negate nodes, edges));
        (let* k = oneofl Op.all in
         let* nodes = insert (pick, "dup", k) nodes in
         return (nodes, edges));
        (let* e =
           oneofl
             [
               (pick, absent); (absent, pick); (-1, pick); (absent, absent + 1);
               (absent, absent);
             ]
         in
         add_edge e);
        add_edge (pick, pick);
        (if edges = [] then add_edge (pick, pick)
         else
           let* e = oneofl edges in
           add_edge e);
        cycle;
        (match of_kind Op.Input with
         | [] -> add_edge (pick, other)
         | inputs ->
           let* i = oneofl inputs in
           add_edge (other, i));
        (match of_kind Op.Output with
         | [] -> add_edge (other, pick)
         | outputs ->
           let* o = oneofl outputs in
           add_edge (o, other));
      ])

(* Half the cases are valid lists, the rest carry one to three faults. *)
let raw_graph_gen =
  QCheck.Gen.(
    let* lists = valid_raw_gen in
    let* faults = frequency [ (2, return 0); (1, return 1); (1, 2 -- 3) ] in
    let rec damage lists k =
      if k = 0 then return lists
      else
        let* lists = fault_gen lists in
        damage lists (k - 1)
    in
    let* raw_nodes, raw_edges = damage lists faults in
    let* salt = int_bound 1000 in
    return { raw_nodes; raw_edges; salt })

let print_raw_graph raw =
  Printf.sprintf "nodes=[%s] edges=[%s] salt=%d"
    (String.concat "; "
       (List.map
          (fun (id, n, k) -> Printf.sprintf "%d %s %s" id n (Op.to_string k))
          raw.raw_nodes))
    (String.concat "; "
       (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) raw.raw_edges))
    raw.salt

let prop_graph_matches_reference =
  QCheck.Test.make ~name:"Graph arrays == the map-based graph" ~count:400
    ~long_factor:40
    (QCheck.make raw_graph_gen ~print:print_raw_graph)
    (fun raw ->
      match (Observe_graph.observe raw, Observe_reference.observe raw) with
      | Error a, Error b when a = b -> true
      | Ok a, Ok b when a = b -> true
      | Ok a, Ok b ->
        (* Both sides make the same calls, so their lines align. *)
        let x, y = List.find (fun (x, y) -> x <> y) (List.combine a b) in
        QCheck.Test.fail_reportf "%s\nreference: %s" x y
      | a, b ->
        let show = function Ok _ -> "Ok" | Error e -> "Error " ^ e in
        QCheck.Test.fail_reportf "%s\nreference: %s" (show a) (show b))

(* --- Text format: the one-pass reader == the split-based reader -------- *)

(* [Text_format.of_string] before it walked the text by index, kept
   verbatim: every line split on '\n', trimmed, split on ' ' and matched
   as a word list. *)
module Reference_text_format = struct
  type accum = {
    mutable graph_name : string option;
    mutable nodes : Graph.node list; (* reversed *)
    mutable edges : (int * int) list; (* reversed *)
  }

  let parse_line acc lineno line =
    let fail fmt =
      Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" lineno msg)) fmt
    in
    let words =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun w -> w <> "")
    in
    match words with
    | [] -> Ok ()
    | comment :: _ when String.length comment > 0 && comment.[0] = '#' -> Ok ()
    | [ "graph"; name ] -> (
      match acc.graph_name with
      | None ->
        acc.graph_name <- Some name;
        Ok ()
      | Some _ -> fail "duplicate graph line")
    | "graph" :: _ -> fail "graph line takes exactly one name"
    | [ "node"; id; name; kind ] -> (
      match (int_of_string_opt id, Op.of_string kind) with
      | Some id, Ok kind ->
        acc.nodes <- { Graph.id; name; kind } :: acc.nodes;
        Ok ()
      | None, _ -> fail "node id %S is not an integer" id
      | _, Error msg -> fail "%s" msg)
    | "node" :: _ -> fail "expected: node <id> <name> <kind>"
    | [ "edge"; a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b ->
        acc.edges <- (a, b) :: acc.edges;
        Ok ()
      | None, _ | _, None -> fail "edge endpoints must be integers")
    | "edge" :: _ -> fail "expected: edge <src> <dst>"
    | keyword :: _ -> fail "unknown keyword %S" keyword

  let of_string text =
    let acc = { graph_name = None; nodes = []; edges = [] } in
    let lines = String.split_on_char '\n' text in
    let rec go lineno = function
      | [] ->
        let name = Option.value acc.graph_name ~default:"unnamed" in
        Graph.create ~name ~nodes:(List.rev acc.nodes) ~edges:(List.rev acc.edges)
      | line :: rest -> (
        match parse_line acc lineno line with
        | Ok () -> go (lineno + 1) rest
        | Error msg -> Error msg)
    in
    go 1 lines
end

let spellings =
  [
    (Op.Add, [ "add"; "+"; "ADD" ]); (Op.Sub, [ "sub"; "-" ]);
    (Op.Mult, [ "mult"; "mul"; "*"; "Mul" ]); (Op.Comp, [ "comp"; "cmp"; ">"; "<" ]);
    (Op.Input, [ "input"; "in"; "imp" ]); (Op.Output, [ "output"; "out"; "xpt" ]);
  ]

(* One line's words, spelled with random spacing: leading and trailing
   blanks, tabs and a CR, runs of spaces between words. *)
let spell_line_gen words =
  QCheck.Gen.(
    let* lead = oneofl [ ""; ""; " "; "   "; "\t"; " \t"; "\012" ] in
    let* trail = oneofl [ ""; ""; " "; "\t"; "\r"; " \r"; "\t\r" ] in
    let* gaps =
      list_repeat (max 0 (List.length words - 1)) (oneofl [ " "; " "; "  "; "    " ])
    in
    let body =
      match words with
      | [] -> ""
      | w :: rest -> List.fold_left2 (fun acc g w -> acc ^ g ^ w) w gaps rest
    in
    return (lead ^ body ^ trail))

(* The lines of a raw graph case (valid or faulty lists, sparse and
   shuffled ids), nodes and edges interleaved in their own orders, with an
   optional graph line and kinds under any of their spellings. *)
let text_lines_gen =
  QCheck.Gen.(
    let* raw = raw_graph_gen in
    let* node_lines =
      flatten_l
        (List.map
           (fun (id, name, kind) ->
             let* kind = oneofl (List.assoc kind spellings) in
             return [ "node"; string_of_int id; name; kind ])
           raw.raw_nodes)
    in
    let edge_lines =
      List.map (fun (a, b) -> [ "edge"; string_of_int a; string_of_int b ]) raw.raw_edges
    in
    let rec interleave a b =
      match (a, b) with
      | [], l | l, [] -> return l
      | x :: a', y :: b' ->
        let* first = bool in
        if first then
          let* rest = interleave a' b in
          return (x :: rest)
        else
          let* rest = interleave a b' in
          return (y :: rest)
    in
    let* lines = interleave node_lines edge_lines in
    let* graph_line = oneofl [ []; [ [ "graph"; "g" ] ]; [ [ "graph"; "hal_2" ] ] ] in
    return (graph_line @ lines))

(* One change a client could make to a line list: ids in the other forms
   [int_of_string_opt] reads or refuses, unknown kinds and keywords,
   missing and extra words, a second graph line, a tab between words. *)
let text_fault_gen lines =
  QCheck.Gen.(
    let n = List.length lines in
    let* at = 0 -- max 0 (n - 1) in
    let edit f = return (List.mapi (fun i l -> if i = at then f l else l) lines) in
    let* id_form =
      oneofl
        [
          (fun s -> "+" ^ s); (fun s -> "-" ^ s); (fun s -> "0x" ^ s);
          (fun s -> if String.length s > 1 then String.sub s 0 1 ^ "_" ^ String.sub s 1 (String.length s - 1) else s ^ "_");
          (fun s -> "_" ^ s); (fun s -> "0u" ^ s); (fun s -> "0b1" ^ s);
          (fun s -> s ^ "x"); (fun _ -> "0o17"); (fun _ -> "9999999999999999999999");
          (fun _ -> "-0");
        ]
    in
    let* word = oneofl [ "foo"; "vertex"; "Node"; "EDGE"; "graphs"; "#x"; "addx"; "12" ] in
    oneof
      [
        edit (function
          | kw :: id :: rest -> kw :: id_form id :: rest
          | l -> l);
        edit (function
          | [ "edge"; a; b ] -> [ "edge"; a; id_form b ]
          | l -> l);
        edit (function
          | [ "node"; id; name; _ ] -> [ "node"; id; name; word ]
          | l -> l);
        edit (function _ :: rest -> word :: rest | [] -> [ word ]);
        edit (fun l -> List.filteri (fun i _ -> i < List.length l - 1) l);
        edit (fun l -> l @ [ word ]);
        (let* name = oneofl [ "g"; "other" ] in
         let* k = 0 -- n in
         return
           (List.filteri (fun i _ -> i < k) lines
           @ ([ "graph"; name ] :: List.filteri (fun i _ -> i >= k) lines)));
        edit (function a :: b :: rest -> (a ^ "\t" ^ b) :: rest | l -> l);
      ])

(* Half the texts are clean, the rest carry one or two changes; blank and
   comment lines go anywhere, and the last newline is optional. *)
let dfg_text_gen =
  QCheck.Gen.(
    let* lines = text_lines_gen in
    let* changes = frequency [ (2, return 0); (1, return 1); (1, return 2) ] in
    let rec change lines k =
      if k = 0 then return lines
      else
        let* lines = text_fault_gen lines in
        change lines (k - 1)
    in
    let* lines = change lines changes in
    let* spelled = flatten_l (List.map spell_line_gen lines) in
    let* spelled =
      flatten_l
        (List.map
           (fun line ->
             let* extra =
               frequency
                 [
                   (6, return []);
                   (1, oneofl [ [ "" ]; [ "   " ]; [ "\t" ]; [ "\r" ]; [ "# node 1 x add" ]; [ "  #graph z" ]; [ "#" ] ]);
                 ]
             in
             return (extra @ [ line ]))
           spelled)
    in
    let* final_newline = bool in
    let text = String.concat "\n" (List.concat spelled) in
    return (if final_newline then text ^ "\n" else text))

let prop_text_matches_reference =
  QCheck.Test.make ~name:"one-pass DFG reader == the split-based reader"
    ~count:400 ~long_factor:40
    (QCheck.make dfg_text_gen ~print:(Printf.sprintf "%S"))
    (fun text ->
      let show = function
        | Ok g ->
          Printf.sprintf "Ok %s\n%s" (Graph.name g) (Pchls_dfg.Text_format.to_string g)
        | Error e -> "Error " ^ e
      in
      let a = show (Pchls_dfg.Text_format.of_string text)
      and b = show (Reference_text_format.of_string text) in
      a = b || QCheck.Test.fail_reportf "%s\nreference: %s" a b)

(* --- JSON: run copies and int printing == the byte-at-a-time reader ---- *)

(* [Json.parse] and [Json.number] before the reader copied runs of plain
   bytes and the writer printed integers with [string_of_int], kept
   verbatim; the type is [Json]'s own, so answers compare directly. *)
module Reference_json = struct
  type t = Pchls_obs.Json.t =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  exception Fail of int * string

  let parse text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Fail (!pos, msg)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | Some _ | None -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> fail (Printf.sprintf "expected %C, got %C" c c')
      | None -> fail (Printf.sprintf "expected %C, got end of input" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub text !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let s = String.sub text !pos 4 in
      pos := !pos + 4;
      match int_of_string_opt ("0x" ^ s) with
      | Some c -> c
      | None -> fail (Printf.sprintf "bad \\u escape %S" s)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'u' ->
            advance ();
            let c = hex4 () in
            (* Keep it simple: encode the scalar as UTF-8; surrogate pairs
               outside the BMP are not reassembled (the tracer never emits
               them). *)
            if c < 0x80 then Buffer.add_char buf (Char.chr c)
            else if c < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
            end;
            pos := !pos - 1 (* the shared advance below *)
          | Some c -> fail (Printf.sprintf "bad escape \\%C" c)
          | None -> fail "unterminated escape");
          advance ();
          go ())
        | Some c when Char.code c < 0x20 ->
          fail "unescaped control character in string"
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let digits () =
        let d = ref 0 in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
            incr d;
            advance ();
            go ()
          | Some _ | None -> ()
        in
        go ();
        if !d = 0 then fail "expected digit"
      in
      if peek () = Some '-' then advance ();
      (match peek () with
      | Some '0' -> advance () (* no leading zeros *)
      | Some '1' .. '9' -> digits ()
      | Some _ | None -> fail "expected digit");
      if peek () = Some '.' then begin
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | Some _ | None -> ());
        digits ()
      | Some _ | None -> ());
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some ('-' | '0' .. '9') -> Number (parse_number ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elems (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | Some c -> fail (Printf.sprintf "expected ',' or ']', got %C" c)
            | None -> fail "unterminated array"
          in
          List (elems [])
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields (kv :: acc)
            | Some '}' ->
              advance ();
              List.rev (kv :: acc)
            | Some c -> fail (Printf.sprintf "expected ',' or '}', got %C" c)
            | None -> fail "unterminated object"
          in
          Obj (fields [])
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage after JSON value";
      v
    with
    | v -> Ok v
    | exception Fail (at, msg) ->
      Error (Printf.sprintf "byte %d: %s" at msg)

  let number f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else if not (Float.is_finite f) then "null"
    else if Float.is_integer f then Printf.sprintf "%.17g" f
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s
      else
        let s = Printf.sprintf "%.16g" f in
        if float_of_string s = f then s else Printf.sprintf "%.17g" f
end

module Json = Pchls_obs.Json

(* Bytes a string may hold: plain ASCII, the characters JSON escapes,
   control bytes and bytes past ASCII. *)
let json_char_gen =
  QCheck.Gen.(
    frequency
      [
        (6, char_range 'a' 'z'); (2, oneofl [ ' '; '"'; '\\'; '/'; '#'; ':' ]);
        (1, map Char.chr (0 -- 0x1f)); (1, map Char.chr (0x80 -- 0xff));
      ])

(* One byte spelled as JSON would let a writer spell it, or as it must
   not: a raw control byte, a bad escape or a short [\u]. *)
let spell_char_gen c =
  QCheck.Gen.(
    let code = Char.code c in
    let u = Printf.sprintf "\\u%04x" code and big_u = Printf.sprintf "\\u%04X" code in
    let plain = String.make 1 c in
    let named =
      match c with
      | '"' -> [ "\\\"" ] | '\\' -> [ "\\\\" ] | '/' -> [ "/"; "\\/" ]
      | '\b' -> [ "\\b" ] | '\012' -> [ "\\f" ] | '\n' -> [ "\\n" ]
      | '\r' -> [ "\\r" ] | '\t' -> [ "\\t" ]
      | _ -> []
    in
    let valid =
      if code < 0x20 || c = '"' || c = '\\' then named @ (if code < 0x80 then [ u; big_u ] else [])
      else if code < 0x80 then plain :: u :: named
      else [ plain ]
    in
    frequency
      [
        (30, oneofl valid);
        (1, return plain);
        (1, oneofl [ "\\x"; "\\u12"; "\\uZZ12"; "\\u00e9"; "\\u20AC"; "\\ud83d"; "\\" ]);
      ])

let json_string_gen =
  QCheck.Gen.(
    let* chars = list_size (0 -- 12) json_char_gen in
    let* spelled = flatten_l (List.map spell_char_gen chars) in
    return ("\"" ^ String.concat "" spelled ^ "\""))

let json_number_gen =
  QCheck.Gen.(
    let digits = map (String.concat "") (list_size (1 -- 4) (map string_of_int (0 -- 9))) in
    let* sign = oneofl [ ""; ""; "-" ] in
    let* int = frequency [ (4, digits); (1, return "0"); (1, return "00") ] in
    let* frac = frequency [ (2, return ""); (1, map (( ^ ) ".") digits); (1, return ".") ] in
    let* exp =
      frequency
        [ (3, return ""); (1, map (fun d -> "e" ^ d) digits); (1, map (fun d -> "E-" ^ d) digits);
          (1, return "e+400"); (1, return "e") ]
    in
    return (sign ^ int ^ frac ^ exp))

(* A JSON document written with random blanks, escapes and numbers, and
   sometimes cut, or with a byte dropped or put in. *)
let json_text_gen =
  QCheck.Gen.(
    let ws = oneofl [ ""; ""; " "; "\n  "; "\t"; "\r\n" ] in
    let rec value depth =
      let leaf =
        frequency
          [
            (1, oneofl [ "null"; "true"; "false"; "nul"; "tru" ]);
            (3, json_string_gen); (3, json_number_gen);
          ]
      in
      if depth = 0 then leaf
      else
        let items = list_size (0 -- 4) (value (depth - 1)) in
        let* w1 = ws and* w2 = ws in
        frequency
          [
            (2, leaf);
            (1, map (fun l -> "[" ^ w1 ^ String.concat ("," ^ w2) l ^ "]") items);
            ( 1,
              let* fields =
                list_size (0 -- 4)
                  (let* k = json_string_gen and* v = value (depth - 1) and* w = ws in
                   return (k ^ w ^ ":" ^ w ^ v))
              in
              return ("{" ^ w1 ^ String.concat ("," ^ w2) fields ^ w2 ^ "}") );
          ]
    in
    let* text = value 3 and* w1 = ws and* w2 = ws in
    let text = w1 ^ text ^ w2 in
    let n = String.length text in
    frequency
      [
        (6, return text);
        (1, map (fun k -> String.sub text 0 k) (0 -- n));
        (1, map (fun k -> String.sub text 0 k ^ String.sub text (min n (k + 1)) (max 0 (n - k - 1))) (0 -- n));
        ( 1,
          let* k = 0 -- n and* c = json_char_gen in
          return (String.sub text 0 k ^ String.make 1 c ^ String.sub text k (n - k)) );
      ])

let prop_json_parse_matches_reference =
  QCheck.Test.make ~name:"run-copying JSON reader == the byte reader"
    ~count:1000 ~long_factor:40
    (QCheck.make json_text_gen ~print:(Printf.sprintf "%S"))
    (fun text ->
      let a = Json.parse text and b = Reference_json.parse text in
      a = b
      ||
      let show = function
        | Ok v -> "Ok " ^ Json.to_string v
        | Error e -> "Error " ^ e
      in
      QCheck.Test.fail_reportf "%s\nreference: %s" (show a) (show b))

(* Doubles at every scale: integral ones on both sides of 1e15 and 2^53,
   random bit patterns (subnormals, infinities and NaNs among them) and
   the edges themselves. *)
let double_gen =
  QCheck.Gen.(
    let edges =
      [
        0.; -0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 2. ** 53. -. 1.;
        2. ** 53. +. 2.; 2. ** 53.; -.(2. ** 53.); Float.min_float;
        Float.epsilon *. Float.min_float; 5e-324; -5e-324; 1e-310; max_float;
        infinity; neg_infinity; nan; 0.5; -0.5; 123456789012345.;
      ]
    in
    frequency
      [
        (2, oneofl edges);
        (3, map float_of_int (int_range (-1_000_000) 1_000_000));
        (2, map (fun k -> Float.of_int k *. (10. ** 14.)) (int_range (-30) 30));
        (3, map Int64.float_of_bits ui64);
        (2, float);
        (1, map (fun x -> Float.round (x *. 1e6) /. 1e3) float);
      ])

let prop_json_number_matches_reference =
  QCheck.Test.make ~name:"int-printing JSON writer == %.0f" ~count:2000
    ~long_factor:40
    (QCheck.make double_gen ~print:(Printf.sprintf "%h"))
    (fun f ->
      let a = Json.to_string (Json.Number f) and b = Reference_json.number f in
      a = b || QCheck.Test.fail_reportf "%s\nreference: %s" a b)

(* --- Pasap: the class loop == the priority-queue loop ------------------ *)

(* [Pasap.run] before it stepped through per-cycle buckets, less its
   cancellation poll and reason texts. Ready operations wait in a queue of
   (tentative start, -priority, id) entries with lazy deletion; a [Set]
   over that total order pops them exactly as the binary heap did, and a
   rejected operation moves to [first_fit]'s start. The answer is the
   placements or the node reported infeasible, with the offset delays
   counted as [Pasap.run] counts them: each placed operation's final
   offset. *)
module Entries = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

type naive_ledger = N_cycles of Profile.t | N_classes of Folded.t

let naive_pasap g ~info ~horizon ~power_limit ?period ~locked () =
  let latency id = (info id).Schedule.latency in
  let priority_of = Graph.distances_to_sink g ~latency in
  let ledger =
    match period with
    | None -> N_cycles (Profile.create ~horizon)
    | Some period -> N_classes (Folded.create ~period)
  in
  let fits ~start ~latency ~power =
    match ledger with
    | N_cycles p -> Profile.fits p ~start ~latency ~power ~limit:power_limit
    | N_classes f -> Folded.fits f ~start ~latency ~power ~limit:power_limit
  in
  let add ~start ~latency ~power =
    match ledger with
    | N_cycles p -> Profile.add p ~start ~latency ~power
    | N_classes f -> Folded.add f ~start ~latency ~power
  in
  let first_fit ~start ~latency ~power =
    match ledger with
    | N_cycles p ->
      Profile.first_fit p ~start ~latency ~power ~limit:power_limit
    | N_classes f ->
      let rec go s =
        if s + latency > horizon then None
        else if Folded.fits f ~start:s ~latency ~power ~limit:power_limit then
          Some s
        else go (s + 1)
      in
      go start
  in
  let peak () =
    match ledger with
    | N_cycles p -> Profile.peak p
    | N_classes f -> Folded.peak f
  in
  let delays = ref 0 in
  let sched = ref Schedule.empty in
  let remaining_preds = Hashtbl.create 64 in
  let ready = Hashtbl.create 64 in
  let queue = ref Entries.empty in
  let push id t = queue := Entries.add (t, -priority_of id, id) !queue in
  let locked_tbl = Hashtbl.create 16 in
  List.iter (fun (id, t) -> Hashtbl.replace locked_tbl id t) locked;
  let is_locked id = Hashtbl.mem locked_tbl id in
  let exception Stop of int in
  let answer =
    try
      Hashtbl.iter
        (fun id t ->
          let { Schedule.latency = d; power } = info id in
          if t < 0 || t + d > horizon then raise (Stop id);
          add ~start:t ~latency:d ~power;
          sched := Schedule.set !sched id t)
        locked_tbl;
      if peak () > power_limit +. Profile.eps then
        raise (Stop (match locked with (id, _) :: _ -> id | [] -> -1));
      List.iter
        (fun id ->
          if not (is_locked id) then
            Hashtbl.replace remaining_preds id
              (List.length
                 (List.filter (fun p -> not (is_locked p)) (Graph.preds g id))))
        (Graph.node_ids g);
      let enter id =
        if Hashtbl.find remaining_preds id = 0 then begin
          let est =
            List.fold_left
              (fun acc p -> max acc (Schedule.start !sched p + latency p))
              0 (Graph.preds g id)
          in
          Hashtbl.replace ready id (est, ref 0);
          push id est
        end
      in
      List.iter
        (fun id -> if not (is_locked id) then enter id)
        (Graph.node_ids g);
      let place id t =
        let { Schedule.latency = d; power } = info id in
        sched := Schedule.set !sched id t;
        add ~start:t ~latency:d ~power;
        Hashtbl.remove ready id;
        List.iter
          (fun s ->
            if not (is_locked s) then begin
              Hashtbl.replace remaining_preds s
                (Hashtbl.find remaining_preds s - 1);
              enter s
            end)
          (Graph.succs g id)
      in
      let rec loop () =
        match Entries.min_elt_opt !queue with
        | None -> ()
        | Some ((t_entry, _, id) as entry) ->
          queue := Entries.remove entry !queue;
          (match Hashtbl.find_opt ready id with
          | None -> () (* already placed *)
          | Some (est, offset) when est + !offset <> t_entry ->
            () (* superseded *)
          | Some (est, offset) ->
            let t = est + !offset in
            let { Schedule.latency = d; power } = info id in
            if t + d > horizon then raise (Stop id);
            if fits ~start:t ~latency:d ~power then begin
              delays := !delays + !offset;
              place id t
            end
            else begin
              let next =
                match first_fit ~start:t ~latency:d ~power with
                | Some s -> s
                | None -> horizon - d + 1
              in
              offset := !offset + (next - t);
              push id next
            end);
          loop ()
      in
      loop ();
      List.iter
        (fun (pred, succ) ->
          if
            is_locked succ
            && Schedule.start !sched pred + latency pred
               > Schedule.start !sched succ
          then raise (Stop succ))
        (Graph.edges g);
      Ok (Schedule.bindings !sched)
    with Stop node -> Error node
  in
  (answer, !delays)

let offset_delays = Metrics.counter "pasap.offset_delays"

(* [Pasap.run]'s answer in the model's terms, with the offset delays it
   added to the shared counter. *)
let fast_pasap g ~info ~horizon ~power_limit ?period ~locked () =
  let before = Metrics.counter_value offset_delays in
  let answer =
    match Pasap.run g ~info ~horizon ~power_limit ?period ~locked () with
    | Pasap.Feasible s -> Ok (Schedule.bindings s)
    | Pasap.Infeasible { node; _ } -> Error node
  in
  (answer, Metrics.counter_value offset_delays - before)

(* Half the cases give every node a random (latency, power), so they have
   many classes of operations that share one; the others use Table 1's
   min-power modules, a few classes of many operations each. Locked sets
   come from a feasible schedule: pasap's or palap's under the case's
   limits when there is one, else unconstrained ASAP or ALAP, which fit
   any horizon from the critical path up. A few locks move by up to three
   cycles (which can break a precedence or the power limit) or just past
   the horizon. *)
let case_info g = function
  | None -> table1_info g
  | Some specs -> H.spec_info specs

let pasap_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* max_nodes = 1 -- 60 in
    let g = Generator.sized ~seed ~max_nodes () in
    let* specs = opt ~ratio:0.5 (H.random_specs g) in
    let info = case_info g specs in
    let cp =
      Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
    in
    let* horizon = cp -- (3 * cp) in
    let* power_limit = oneofl [ 4.; 8.; 12.; 20.; infinity ] in
    let* period = opt ~ratio:0.5 (1 -- 16) in
    let* late = bool in
    let feasible ?power_limit ?period () =
      if late && period = None then Palap.run g ~info ~horizon ?power_limit ()
      else Pasap.run g ~info ~horizon ?power_limit ?period ()
    in
    let base =
      match feasible ~power_limit ?period () with
      | Pasap.Feasible s -> s
      | Pasap.Infeasible _ -> Pasap.schedule_exn (feasible ())
    in
    let* density = oneofl [ 0.; 0.1; 0.4; 0.9 ] in
    let* moved = oneofl [ 0.; 0.; 0.05; 0.2 ] in
    let* locked =
      flatten_l
        (List.map
           (fun (id, t) ->
             let* pick = float_bound_inclusive 1. in
             let* move = float_bound_inclusive 1. in
             let* shift =
               if move >= moved then return 0
               else
                 frequency
                   [ (4, int_range (-3) 3); (1, return (horizon + 1 - t)) ]
             in
             return (if pick < density then Some (id, t + shift) else None))
           (Schedule.bindings base))
    in
    let* locked = shuffle_l (List.filter_map Fun.id locked) in
    return (g, specs, horizon, power_limit, period, locked))

let print_pasap_case (g, specs, horizon, power_limit, period, locked) =
  Format.asprintf "%a specs=%s T=%d P<=%g period=%s locked=[%s]" Graph.pp g
    (match specs with
    | None -> "table1"
    | Some specs ->
      String.concat " "
        (List.map (fun (id, d, p) -> Printf.sprintf "%d:%d/%g" id d p) specs))
    horizon power_limit
    (match period with Some p -> string_of_int p | None -> "none")
    (String.concat "; "
       (List.map (fun (id, t) -> Printf.sprintf "%d@%d" id t) locked))

let prop_pasap_matches_queue =
  QCheck.Test.make ~name:"pasap classes == priority-queue loop" ~count:500
    ~long_factor:40
    (QCheck.make pasap_case_gen ~print:print_pasap_case)
    (fun (g, specs, horizon, power_limit, period, locked) ->
      let info = case_info g specs in
      fast_pasap g ~info ~horizon ~power_limit ?period ~locked ()
      = naive_pasap g ~info ~horizon ~power_limit ?period ~locked ())

(* --- Modulo: pasap's loop over the folded ledger == one-cycle bumps ---- *)

(* The modulo scheduler before it ran through [Pasap.run ~period]: each
   step scans every ready operation for the smallest (tentative start,
   larger distance to sink, smaller id), places it when the folded ledger
   admits it, and otherwise bumps its offset by one cycle. [Error node]
   is the operation that left the horizon. *)
let naive_modulo g ~info ~period ~horizon ~power_limit =
  let latency id = (info id).Schedule.latency in
  let ledger = Folded.create ~period in
  let sched = ref Schedule.empty in
  let remaining_preds = Hashtbl.create 64 in
  List.iter
    (fun id ->
      Hashtbl.replace remaining_preds id (List.length (Graph.preds g id)))
    (Graph.node_ids g);
  let offsets = Hashtbl.create 64 in
  let ready = Hashtbl.create 64 in
  let enter id =
    if Hashtbl.find remaining_preds id = 0 then
      Hashtbl.replace ready id
        (List.fold_left
           (fun acc p -> max acc (Schedule.start !sched p + latency p))
           0 (Graph.preds g id))
  in
  List.iter enter (Graph.node_ids g);
  let offset id = Option.value (Hashtbl.find_opt offsets id) ~default:0 in
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
  let rec loop () =
    match pick () with
    | None -> Ok (Schedule.bindings !sched)
    | Some (id, t) ->
      let { Schedule.latency = d; power } = info id in
      if t + d > horizon then Error id
      else begin
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
      end
  in
  loop ()

let modulo_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* max_nodes = 1 -- 40 in
    let g = Generator.sized ~seed ~max_nodes () in
    let cp =
      Graph.critical_path g ~latency:(fun id ->
          (table1_info g id).Schedule.latency)
    in
    let* horizon = cp -- (3 * cp) in
    let* period = 1 -- 16 in
    let* power_limit = oneofl [ 4.; 8.; 12.; 20.; infinity ] in
    return (g, horizon, period, power_limit))

let prop_modulo_matches_bumps =
  QCheck.Test.make ~name:"pasap ~period == one-cycle bumps" ~count:300
    ~long_factor:40
    (QCheck.make modulo_case_gen ~print:(fun (g, horizon, period, p) ->
         Format.asprintf "%a T=%d period=%d P<=%g" Graph.pp g horizon period p))
    (fun (g, horizon, period, power_limit) ->
      let info = table1_info g in
      let fast =
        match Pasap.run g ~info ~horizon ~power_limit ~period () with
        | Pasap.Feasible s -> Ok (Schedule.bindings s)
        | Pasap.Infeasible { node; _ } -> Error node
      in
      fast = naive_modulo g ~info ~period ~horizon ~power_limit)

(* --- Slots: sorted-start searches == the list scans they replaced ------ *)

(* The engine's free-slot searches before an instance kept its starts
   sorted: [scan_earliest] sorted the placements on every call and
   rescanned them for each candidate start, [scan_latest] rescanned the
   unsorted list, and a retype's disjointness test sorted them again. *)
let scan_earliest placed ~d ~lo ~hi =
  let busy = List.sort Int.compare placed in
  let rec scan t =
    if t > hi then None
    else
      match List.find_opt (fun tb -> t < tb + d && tb < t + d) busy with
      | None -> Some t
      | Some tb -> scan (tb + d)
  in
  scan lo

let scan_latest placed ~d ~lo ~hi =
  let rec scan t =
    if t < lo then None
    else
      match List.find_opt (fun tb -> t < tb + d && tb < t + d) placed with
      | None -> Some t
      | Some tb -> scan (tb - d)
  in
  scan hi

let scan_spaced placed ~d =
  let rec disjoint = function
    | t1 :: (t2 :: _ as rest) -> t1 + d <= t2 && disjoint rest
    | [ _ ] | [] -> true
  in
  disjoint (List.sort Int.compare placed)

(* An instance of latency [l]: starts at least [l] apart, added in random
   order with some removed again, and probes of latency [l] and of other
   latencies (a retype trial), some with [lo > hi]. *)
let slots_case_gen =
  QCheck.Gen.(
    let* l = 1 -- 4 in
    let* n = frequency [ (1, return 0); (5, 1 -- 20) ] in
    let* first = 0 -- 5 in
    let* gaps = list_repeat n (0 -- 4) in
    let starts =
      List.rev
        (snd
           (List.fold_left
              (fun (t, acc) gap -> (t + l + gap, t :: acc))
              (first, []) gaps))
    in
    let* order = shuffle_l starts in
    let* removed = list_repeat n bool in
    let top = first + (n * (l + 4)) + 10 in
    let probe =
      let* d = frequency [ (1, return l); (1, 1 -- 6) ] in
      let* lo = -2 -- top and* hi = -2 -- top in
      return (d, lo, hi)
    in
    let* probes = list_size (1 -- 10) probe in
    return (l, order, removed, probes))

let prop_slots_match_scans =
  QCheck.Test.make ~name:"slot searches == list scans" ~count:500
    (QCheck.make slots_case_gen ~print:(fun (l, order, removed, probes) ->
         Printf.sprintf "L=%d adds=[%s] removed=[%s] probes=[%s]" l
           (String.concat "; " (List.map string_of_int order))
           (String.concat "; " (List.map string_of_bool removed))
           (String.concat "; "
              (List.map
                 (fun (d, lo, hi) -> Printf.sprintf "d=%d [%d, %d]" d lo hi)
                 probes))))
    (fun (_, order, removed, probes) ->
      let slots = Slots.create () in
      List.iter (Slots.add slots) order;
      let placed =
        List.filteri
          (fun i t ->
            if List.nth removed i then begin
              Slots.remove slots t;
              false
            end
            else true)
          order
      in
      Slots.to_list slots = List.sort Int.compare placed
      && List.for_all
           (fun (d, lo, hi) ->
             Slots.earliest slots ~d ~lo ~hi = scan_earliest placed ~d ~lo ~hi
             && Slots.latest slots ~d ~lo ~hi = scan_latest placed ~d ~lo ~hi
             && Slots.spaced slots ~d = scan_spaced placed ~d)
           probes)

(* --- Engine: store-driven pick == full enumeration --------------------- *)

(* [~self_check:true] re-derives every iteration's candidate pick by full
   enumeration and sort, rebuilds the schedulers' latency, power and lock
   arrays from scratch, and aborts the run as Infeasible with a
   "self-check" reason on any divergence from the gain-ordered store or
   the kept arrays — so the property is simply that no such reason ever
   surfaces. Half the graphs are renumbered to sparse, shuffled ids, which
   send the engine's index lookups through [Graph.index]'s binary
   search. Half the runs use Table 1 with a 2-cycle, 3.5-power ALU, so a
   retype changes the latency and power of the operations it moves. *)
let slow_alu_library =
  Library.of_list_exn
    (List.map
       (fun (m : Pchls_fulib.Module_spec.t) ->
         if m.name = "ALU" then { m with latency = 2; power = 3.5 } else m)
       (Library.to_list Library.default))

let engine_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* layers = 1 -- 5 in
    let* width = 1 -- 4 in
    let* power = oneofl [ 10.; 15.; 25. ] in
    let* slow_alu = bool in
    let g = Generator.layered ~seed ~layers ~width () in
    let* sparse = bool in
    if not sparse then return (g, power, slow_alu)
    else
      let* nodes, edges = renumbered_raw_gen g in
      let nodes =
        List.map (fun (id, name, kind) -> { Graph.id; name; kind }) nodes
      in
      return
        (Graph.create_exn ~name:(Graph.name g) ~nodes ~edges, power, slow_alu))

let prop_engine_store_matches_enumeration =
  QCheck.Test.make
    ~name:"engine store pick == full enumeration (self-check)" ~count:60
    ~long_factor:10
    (QCheck.make engine_case_gen ~print:(fun (g, power, slow_alu) ->
         Format.asprintf "%a P<=%g%s" Graph.pp g power
           (if slow_alu then " slow ALU" else "")))
    (fun (g, power, slow_alu) ->
      let info = table1_info g in
      let latency id = (info id).Schedule.latency in
      let time_limit = max 1 (Graph.critical_path g ~latency * 2) in
      let library = if slow_alu then slow_alu_library else Library.default in
      match
        Engine.run ~self_check:true ~library ~time_limit ~power_limit:power g
      with
      | Engine.Synthesized _ -> true
      | Engine.Infeasible { reason } ->
        (* Genuine infeasibility is fine; a self-check diagnostic is the
           equivalence violation this suite exists to catch. *)
        not
          (String.length reason >= 10
          && String.sub reason 0 10 = "self-check"))

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "equiv"
    [
      ( "profile",
        List.map to_alcotest
          [
            prop_profile_cells;
            prop_profile_aggregates;
            prop_profile_fits;
            prop_profile_first_fit;
          ] );
      ( "cgraph",
        List.map to_alcotest [ prop_cgraph_incremental; prop_bitset_model ] );
      ( "fprint",
        List.map to_alcotest [ prop_fingerprint_matches_reference ] );
      ( "graph", List.map to_alcotest [ prop_graph_matches_reference ] );
      ("text", List.map to_alcotest [ prop_text_matches_reference ]);
      ( "json",
        List.map to_alcotest
          [
            prop_json_parse_matches_reference;
            prop_json_number_matches_reference;
          ] );
      ( "pasap", List.map to_alcotest [ prop_pasap_matches_queue ] );
      ( "modulo", List.map to_alcotest [ prop_modulo_matches_bumps ] );
      ( "slots", List.map to_alcotest [ prop_slots_match_scans ] );
      ( "engine",
        List.map to_alcotest [ prop_engine_store_matches_enumeration ] );
    ]
