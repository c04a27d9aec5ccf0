module Graph = Pchls_dfg.Graph

type predicate = Sampler.instance -> Oracle.failure option

(* Removing a node (with incident edges) or an edge cannot invalidate a
   well-formed DAG — no cycle, self-loop, duplicate, or Input/Output
   orientation violation can appear by deletion — so [create] only fails on
   the empty graph, which we never propose. *)
let drop_node inst id =
  let g = inst.Sampler.graph in
  let nodes = List.filter (fun n -> n.Graph.id <> id) (Graph.nodes g) in
  match nodes with
  | [] -> None
  | _ ->
    let edges =
      List.filter (fun (a, b) -> a <> id && b <> id) (Graph.edges g)
    in
    (match Graph.create ~name:(Graph.name g) ~nodes ~edges with
    | Ok graph -> Some { inst with Sampler.graph = graph }
    | Error _ -> None)

let drop_edge inst (src, dst) =
  let g = inst.Sampler.graph in
  let edges = List.filter (fun e -> e <> (src, dst)) (Graph.edges g) in
  match Graph.create ~name:(Graph.name g) ~nodes:(Graph.nodes g) ~edges with
  | Ok graph -> Some { inst with Sampler.graph = graph }
  | Error _ -> None

(* Candidate simplifications in a fixed order; the first one preserving the
   failure is taken and the scan restarts. Node drops go highest-id first —
   generated graphs allocate sinks last, so this peels the graph from its
   outputs inward, which converges quickest in practice. *)
let candidates inst =
  let g = inst.Sampler.graph in
  let node_drops =
    List.rev_map (fun id () -> drop_node inst id) (Graph.node_ids g)
  in
  let edge_drops = List.map (fun e () -> drop_edge inst e) (Graph.edges g) in
  let loosen =
    (if Float.is_finite inst.Sampler.power_limit then
       [ (fun () -> Some { inst with Sampler.power_limit = infinity }) ]
     else [])
    @
    (* Doubling stops at a small cap so repro constraints stay readable —
       past that, T is clearly not what the failure depends on. *)
    if inst.Sampler.time_limit < 64 then
      [
        (fun () ->
          Some { inst with Sampler.time_limit = inst.Sampler.time_limit * 2 });
      ]
    else []
  in
  node_drops @ edge_drops @ loosen

(* How many simplifications [minimize] accepts before it stops. *)
let max_steps = 200

let minimize ~predicate ~bucket inst =
  let fails i =
    match predicate i with
    | Some f when Oracle.bucket f = bucket -> Some f
    | Some _ | None -> None
  in
  let f0 =
    match fails inst with
    | Some f -> f
    | None ->
      invalid_arg
        (Printf.sprintf "Shrink.minimize: instance does not fail in bucket %s"
           bucket)
  in
  let rec go inst failure steps =
    if steps >= max_steps then (inst, failure)
    else
      let rec first = function
        | [] -> None
        | c :: rest -> (
          match c () with
          | None -> first rest
          | Some cand -> (
            match fails cand with
            | Some f -> Some (cand, f)
            | None -> first rest))
      in
      match first (candidates inst) with
      | Some (smaller, f) -> go smaller f (steps + 1)
      | None -> (inst, failure)
  in
  go inst f0 0
