module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op

let n id name kind = { Graph.id; name; kind }

(* in0 -> a1 -> m2 -> out3, plus a1 -> out4 *)
let diamondish () =
  Graph.create_exn ~name:"t"
    ~nodes:
      [
        n 0 "in0" Op.Input;
        n 1 "a1" Op.Add;
        n 2 "m2" Op.Mult;
        n 3 "out3" Op.Output;
        n 4 "out4" Op.Output;
      ]
    ~edges:[ (0, 1); (1, 2); (2, 3); (1, 4) ]

let expect_error ~name ~nodes ~edges what =
  match Graph.create ~name ~nodes ~edges with
  | Ok _ -> Alcotest.fail ("expected error: " ^ what)
  | Error _ -> ()

let test_counts () =
  let g = diamondish () in
  Alcotest.(check int) "nodes" 5 (Graph.node_count g);
  Alcotest.(check int) "edges" 4 (Graph.edge_count g)

let test_empty_graph () =
  let g = Graph.create_exn ~name:"empty" ~nodes:[] ~edges:[] in
  Alcotest.(check int) "no nodes" 0 (Graph.node_count g);
  Alcotest.(check (list int)) "topo empty" [] (Graph.topological_order g);
  Alcotest.(check int) "critical path 0" 0
    (Graph.critical_path g ~latency:(fun _ -> 1))

let test_duplicate_id () =
  expect_error ~name:"t"
    ~nodes:[ n 0 "a" Op.Add; n 0 "b" Op.Sub ]
    ~edges:[] "duplicate id"

let test_negative_id () =
  expect_error ~name:"t" ~nodes:[ n (-1) "a" Op.Add ] ~edges:[] "negative id"

let test_unknown_edge_endpoint () =
  expect_error ~name:"t" ~nodes:[ n 0 "a" Op.Add ] ~edges:[ (0, 7) ]
    "unknown target";
  expect_error ~name:"t" ~nodes:[ n 0 "a" Op.Add ] ~edges:[ (7, 0) ]
    "unknown source"

let test_self_loop () =
  expect_error ~name:"t" ~nodes:[ n 0 "a" Op.Add ] ~edges:[ (0, 0) ] "self loop"

let test_duplicate_edge () =
  expect_error ~name:"t"
    ~nodes:[ n 0 "a" Op.Add; n 1 "b" Op.Sub ]
    ~edges:[ (0, 1); (0, 1) ]
    "duplicate edge"

let test_cycle_detected () =
  expect_error ~name:"t"
    ~nodes:[ n 0 "a" Op.Add; n 1 "b" Op.Sub; n 2 "c" Op.Mult ]
    ~edges:[ (0, 1); (1, 2); (2, 0) ]
    "cycle"

let test_input_with_pred_rejected () =
  expect_error ~name:"t"
    ~nodes:[ n 0 "a" Op.Add; n 1 "i" Op.Input ]
    ~edges:[ (0, 1) ]
    "input with predecessor"

let test_output_with_succ_rejected () =
  expect_error ~name:"t"
    ~nodes:[ n 0 "o" Op.Output; n 1 "a" Op.Add ]
    ~edges:[ (0, 1) ]
    "output with successor"

let test_accessors () =
  let g = diamondish () in
  Alcotest.(check string) "name" "t" (Graph.name g);
  Alcotest.(check string) "node name" "m2" (Graph.node_name g 2);
  Alcotest.(check bool) "kind" true (Op.equal Op.Mult (Graph.kind g 2));
  Alcotest.(check bool) "mem" true (Graph.mem g 4);
  Alcotest.(check bool) "not mem" false (Graph.mem g 9);
  Alcotest.check_raises "node raises" Not_found (fun () ->
      ignore (Graph.node g 9));
  Alcotest.(check bool) "find_node none" true (Graph.find_node g 9 = None)

let test_adjacency () =
  let g = diamondish () in
  Alcotest.(check (list int)) "succs of 1" [ 2; 4 ] (Graph.succs g 1);
  Alcotest.(check (list int)) "preds of 3" [ 2 ] (Graph.preds g 3);
  Alcotest.(check (list int)) "preds of 0" [] (Graph.preds g 0);
  Alcotest.(check bool) "is_edge" true (Graph.is_edge g ~src:1 ~dst:4);
  Alcotest.(check bool) "not is_edge" false (Graph.is_edge g ~src:4 ~dst:1)

let test_sources_sinks () =
  let g = diamondish () in
  Alcotest.(check (list int)) "sources" [ 0 ] (Graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3; 4 ] (List.sort compare (Graph.sinks g))

let test_topological_order () =
  let g = diamondish () in
  let topo = Graph.topological_order g in
  Alcotest.(check int) "covers all" (Graph.node_count g) (List.length topo);
  let position = Hashtbl.create 8 in
  List.iteri (fun i id -> Hashtbl.replace position id i) topo;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d before %d" a b)
        true
        (Hashtbl.find position a < Hashtbl.find position b))
    (Graph.edges g)

let test_nodes_of_kind () =
  let g = diamondish () in
  Alcotest.(check (list int)) "outputs" [ 3; 4 ] (Graph.nodes_of_kind g Op.Output);
  Alcotest.(check (list int)) "mults" [ 2 ] (Graph.nodes_of_kind g Op.Mult);
  Alcotest.(check (list int)) "comps" [] (Graph.nodes_of_kind g Op.Comp)

let test_kind_counts () =
  let g = diamondish () in
  let counts = Graph.kind_counts g in
  Alcotest.(check (option int))
    "two outputs" (Some 2)
    (List.assoc_opt Op.Output counts);
  Alcotest.(check (option int)) "no comp" None (List.assoc_opt Op.Comp counts)

let test_critical_path_unit_latency () =
  let g = diamondish () in
  Alcotest.(check int) "unit latencies" 4
    (Graph.critical_path g ~latency:(fun _ -> 1))

let test_critical_path_weighted () =
  let g = diamondish () in
  (* in(1) a1(1) m2(4) out(1) = 7 *)
  let latency id = if Op.equal (Graph.kind g id) Op.Mult then 4 else 1 in
  Alcotest.(check int) "weighted" 7 (Graph.critical_path g ~latency)

let test_distances () =
  let g = diamondish () in
  let latency _ = 1 in
  let to_sink = Graph.distances_to_sink g ~latency
  and from_source = Graph.distances_from_source g ~latency in
  Alcotest.(check int) "to sink from 0" 4 (to_sink 0);
  Alcotest.(check int) "to sink from 3" 1 (to_sink 3);
  Alcotest.(check int) "from source at 0" 1 (from_source 0);
  Alcotest.(check int) "from source at 3" 4 (from_source 3)

let test_reverse () =
  let g = diamondish () in
  let r = Graph.reverse g in
  Alcotest.(check (list int)) "succs flip" [ 0 ] (Graph.succs r 1);
  Alcotest.(check (list int)) "preds flip" [ 2; 4 ] (Graph.preds r 1);
  Alcotest.(check int) "same nodes" (Graph.node_count g) (Graph.node_count r);
  Alcotest.(check int) "same edges" (Graph.edge_count g) (Graph.edge_count r);
  let topo = Graph.topological_order r in
  let position = Hashtbl.create 8 in
  List.iteri (fun i id -> Hashtbl.replace position id i) topo;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "reversed topo valid" true
        (Hashtbl.find position a < Hashtbl.find position b))
    (Graph.edges r)

let test_edges_sorted () =
  let g = diamondish () in
  Alcotest.(check (list (pair int int)))
    "lexicographic"
    [ (0, 1); (1, 2); (1, 4); (2, 3) ]
    (Graph.edges g)

let () =
  Alcotest.run "graph"
    [
      ( "validation",
        [
          Alcotest.test_case "duplicate id rejected" `Quick test_duplicate_id;
          Alcotest.test_case "negative id rejected" `Quick test_negative_id;
          Alcotest.test_case "unknown endpoints rejected" `Quick
            test_unknown_edge_endpoint;
          Alcotest.test_case "self loop rejected" `Quick test_self_loop;
          Alcotest.test_case "duplicate edge rejected" `Quick test_duplicate_edge;
          Alcotest.test_case "cycle rejected" `Quick test_cycle_detected;
          Alcotest.test_case "input with pred rejected" `Quick
            test_input_with_pred_rejected;
          Alcotest.test_case "output with succ rejected" `Quick
            test_output_with_succ_rejected;
        ] );
      ( "queries",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
          Alcotest.test_case "sources and sinks" `Quick test_sources_sinks;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "nodes_of_kind" `Quick test_nodes_of_kind;
          Alcotest.test_case "kind_counts" `Quick test_kind_counts;
          Alcotest.test_case "edges sorted" `Quick test_edges_sorted;
        ] );
      ( "paths",
        [
          Alcotest.test_case "critical path, unit latency" `Quick
            test_critical_path_unit_latency;
          Alcotest.test_case "critical path, weighted" `Quick
            test_critical_path_weighted;
          Alcotest.test_case "distance to sink / from source" `Quick
            test_distances;
          Alcotest.test_case "reverse flips edges" `Quick test_reverse;
        ] );
    ]
