module Cgraph = Pchls_compat.Cgraph

let test_create () =
  let g = Cgraph.create ~n:4 in
  Alcotest.(check int) "vertices" 4 (Cgraph.vertex_count g);
  Alcotest.(check int) "no edges" 0 (Cgraph.edge_count g)

let test_create_negative () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Cgraph.create ~n:(-1));
       false
     with Invalid_argument _ -> true)

let test_add_edge_symmetric () =
  let g = Cgraph.create ~n:3 in
  Cgraph.add_edge g 0 2 1.5;
  Alcotest.(check (option (float 0.))) "forward" (Some 1.5) (Cgraph.weight g 0 2);
  Alcotest.(check (option (float 0.))) "backward" (Some 1.5) (Cgraph.weight g 2 0);
  Alcotest.(check bool) "compatible" true (Cgraph.compatible g 0 2);
  Alcotest.(check bool) "others not" false (Cgraph.compatible g 0 1)

let test_add_edge_replaces () =
  let g = Cgraph.create ~n:2 in
  Cgraph.add_edge g 0 1 1.;
  Cgraph.add_edge g 0 1 2.;
  Alcotest.(check (option (float 0.))) "replaced" (Some 2.) (Cgraph.weight g 0 1);
  Alcotest.(check int) "still one edge" 1 (Cgraph.edge_count g)

let test_self_edge_rejected () =
  let g = Cgraph.create ~n:2 in
  Alcotest.(check bool) "raises" true
    (try
       Cgraph.add_edge g 1 1 1.;
       false
     with Invalid_argument _ -> true)

let test_out_of_range () =
  let g = Cgraph.create ~n:2 in
  Alcotest.(check bool) "raises" true
    (try
       Cgraph.add_edge g 0 5 1.;
       false
     with Invalid_argument _ -> true)

let test_edges_sorted () =
  let g = Cgraph.create ~n:4 in
  Cgraph.add_edge g 2 3 1.;
  Cgraph.add_edge g 0 1 2.;
  Cgraph.add_edge g 1 3 3.;
  Alcotest.(check (list (triple int int (float 0.))))
    "sorted with u < v"
    [ (0, 1, 2.); (1, 3, 3.); (2, 3, 1.) ]
    (Cgraph.edges g)

let test_neighbours () =
  let g = Cgraph.create ~n:4 in
  Cgraph.add_edge g 1 0 1.;
  Cgraph.add_edge g 1 3 1.;
  Alcotest.(check (list int)) "sorted" [ 0; 3 ] (Cgraph.neighbours g 1);
  Alcotest.(check (list int)) "of 2" [] (Cgraph.neighbours g 2)

let triangle () =
  let g = Cgraph.create ~n:4 in
  Cgraph.add_edge g 0 1 1.;
  Cgraph.add_edge g 1 2 2.;
  Cgraph.add_edge g 0 2 3.;
  g

let test_is_clique () =
  let g = triangle () in
  Alcotest.(check bool) "triangle" true (Cgraph.is_clique g [ 0; 1; 2 ]);
  Alcotest.(check bool) "with isolated vertex" false
    (Cgraph.is_clique g [ 0; 1; 3 ]);
  Alcotest.(check bool) "singleton" true (Cgraph.is_clique g [ 3 ]);
  Alcotest.(check bool) "empty" true (Cgraph.is_clique g [])

let test_clique_weight () =
  let g = triangle () in
  Alcotest.(check (float 1e-9)) "sum of pairs" 6. (Cgraph.clique_weight g [ 0; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "pair" 2. (Cgraph.clique_weight g [ 1; 2 ]);
  Alcotest.(check (float 1e-9)) "singleton" 0. (Cgraph.clique_weight g [ 3 ]);
  Alcotest.(check bool) "non-clique raises" true
    (try
       ignore (Cgraph.clique_weight g [ 0; 3 ]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "cgraph"
    [
      ( "cgraph",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "negative size rejected" `Quick test_create_negative;
          Alcotest.test_case "edges are symmetric" `Quick test_add_edge_symmetric;
          Alcotest.test_case "add replaces weight" `Quick test_add_edge_replaces;
          Alcotest.test_case "self edge rejected" `Quick test_self_edge_rejected;
          Alcotest.test_case "range checked" `Quick test_out_of_range;
          Alcotest.test_case "edges listed sorted" `Quick test_edges_sorted;
          Alcotest.test_case "neighbours" `Quick test_neighbours;
          Alcotest.test_case "is_clique" `Quick test_is_clique;
          Alcotest.test_case "clique_weight" `Quick test_clique_weight;
        ] );
    ]
