module H = Test_helpers
module Regalloc = Pchls_core.Regalloc
module Schedule = Pchls_sched.Schedule
module Graph = Pchls_dfg.Graph
module Asap = Pchls_sched.Asap
module B = Pchls_dfg.Benchmarks

let lt node birth death = { Regalloc.node; birth; death }

let test_lifetimes_chain () =
  let g = H.chain3 () in
  let info = H.uniform_info () in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 2) ] in
  let ls = Regalloc.lifetimes g s ~info in
  (* node 0 lives [1,1] (consumed by 1 at cycle 1); node 1 lives [2,2];
     node 2 is a primary output with no value. *)
  Alcotest.(check int) "two values" 2 (List.length ls);
  let l0 = List.find (fun l -> l.Regalloc.node = 0) ls in
  Alcotest.(check int) "birth of 0" 1 l0.Regalloc.birth;
  Alcotest.(check int) "death of 0" 1 l0.Regalloc.death

let test_lifetime_extends_to_last_consumer () =
  (* 0 feeds both 1 (early) and 2 (late). *)
  let g =
    Graph.create_exn ~name:"fan"
      ~nodes:
        [
          { Graph.id = 0; name = "i"; kind = Pchls_dfg.Op.Input };
          { Graph.id = 1; name = "a"; kind = Pchls_dfg.Op.Add };
          { Graph.id = 2; name = "b"; kind = Pchls_dfg.Op.Add };
        ]
      ~edges:[ (0, 1); (0, 2) ]
  in
  let info = H.uniform_info () in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 7) ] in
  let ls = Regalloc.lifetimes g s ~info in
  let l0 = List.find (fun l -> l.Regalloc.node = 0) ls in
  Alcotest.(check int) "death at last consumer" 7 l0.Regalloc.death

let test_multicycle_producer_birth () =
  let g = H.chain3 () in
  let info id =
    { Schedule.latency = (if id = 1 then 3 else 1); power = 1. }
  in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 4) ] in
  let ls = Regalloc.lifetimes g s ~info in
  let l1 = List.find (fun l -> l.Regalloc.node = 1) ls in
  Alcotest.(check int) "born when finished" 4 l1.Regalloc.birth

let test_overlap () =
  Alcotest.(check bool) "disjoint" false
    (Regalloc.overlap (lt 0 0 1) (lt 1 2 3));
  Alcotest.(check bool) "touching inclusive" true
    (Regalloc.overlap (lt 0 0 2) (lt 1 2 3));
  Alcotest.(check bool) "nested" true (Regalloc.overlap (lt 0 0 9) (lt 1 3 4));
  Alcotest.(check bool) "symmetric" true (Regalloc.overlap (lt 1 3 4) (lt 0 0 9))

let test_left_edge_disjoint_share () =
  let regs = Regalloc.left_edge [ lt 0 0 1; lt 1 2 3; lt 2 4 5 ] in
  Alcotest.(check int) "one register" 1 (Array.length regs);
  Alcotest.(check (list int)) "in birth order" [ 0; 1; 2 ] regs.(0)

let test_left_edge_overlapping_split () =
  let regs = Regalloc.left_edge [ lt 0 0 5; lt 1 1 2; lt 2 3 4 ] in
  Alcotest.(check int) "two registers" 2 (Array.length regs);
  (* 1 and 2 are disjoint, they share the second register *)
  Alcotest.(check (list int)) "first register holds 0" [ 0 ] regs.(0);
  Alcotest.(check (list int)) "second shared" [ 1; 2 ] regs.(1)

let test_left_edge_count_is_max_overlap () =
  (* Three values all alive at cycle 2 -> 3 registers. *)
  let regs = Regalloc.left_edge [ lt 0 0 2; lt 1 1 3; lt 2 2 4 ] in
  Alcotest.(check int) "three registers" 3 (Array.length regs)

let test_left_edge_empty () =
  Alcotest.(check int) "no values" 0 (Array.length (Regalloc.left_edge []))

let test_register_of () =
  let regs = Regalloc.left_edge [ lt 0 0 5; lt 1 1 2 ] in
  Alcotest.(check int) "node 0" 0 (Regalloc.register_of regs 0);
  Alcotest.(check int) "node 1" 1 (Regalloc.register_of regs 1);
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Regalloc.register_of regs 9))

(* A hand-made allocation answers as the scan over registers did: a node
   listed in two registers reads the first, an unlisted one raises. One
   partial application serves every lookup. *)
let test_register_of_table () =
  let register_of = Regalloc.register_of [| [ 4; 7 ]; [ 2; 7 ]; [ 4 ]; [] |] in
  Alcotest.(check (list int)) "registers" [ 1; 0; 0 ]
    (List.map register_of [ 2; 4; 7 ]);
  List.iter
    (fun absent ->
      Alcotest.check_raises
        (Printf.sprintf "absent %d" absent)
        Not_found
        (fun () -> ignore (register_of absent)))
    [ 0; 3; -1 ];
  Alcotest.check_raises "empty allocation" Not_found (fun () ->
      ignore (Regalloc.register_of [||] 0))

(* Optimality on interval graphs: register count equals max concurrent
   lifetimes, checked on all benchmarks under ASAP. *)
let test_left_edge_optimal_on_benchmarks () =
  List.iter
    (fun (name, g) ->
      let info = H.table1_info () g in
      let s = Asap.run g ~info in
      let ls = Regalloc.lifetimes g s ~info in
      let regs = Regalloc.left_edge ls in
      let horizon = Schedule.makespan s ~info + 1 in
      let max_live = ref 0 in
      for c = 0 to horizon do
        let live =
          List.length
            (List.filter
               (fun l -> l.Regalloc.birth <= c && c <= l.Regalloc.death)
               ls)
        in
        max_live := max !max_live live
      done;
      Alcotest.(check int)
        (name ^ ": registers = max concurrent lifetimes")
        !max_live (Array.length regs);
      (* No register may hold overlapping values. *)
      Array.iter
        (fun nodes ->
          let lts =
            List.map
              (fun nd -> List.find (fun l -> l.Regalloc.node = nd) ls)
              nodes
          in
          let rec pairwise = function
            | a :: rest ->
              List.iter
                (fun b ->
                  Alcotest.(check bool) "no overlap inside register" false
                    (Regalloc.overlap a b))
                rest;
              pairwise rest
            | [] -> ()
          in
          pairwise lts)
        regs)
    B.all

let () =
  Alcotest.run "regalloc"
    [
      ( "lifetimes",
        [
          Alcotest.test_case "chain lifetimes" `Quick test_lifetimes_chain;
          Alcotest.test_case "extends to last consumer" `Quick
            test_lifetime_extends_to_last_consumer;
          Alcotest.test_case "multi-cycle producer birth" `Quick
            test_multicycle_producer_birth;
          Alcotest.test_case "overlap predicate" `Quick test_overlap;
        ] );
      ( "left_edge",
        [
          Alcotest.test_case "disjoint values share" `Quick
            test_left_edge_disjoint_share;
          Alcotest.test_case "overlapping values split" `Quick
            test_left_edge_overlapping_split;
          Alcotest.test_case "count equals max overlap" `Quick
            test_left_edge_count_is_max_overlap;
          Alcotest.test_case "empty input" `Quick test_left_edge_empty;
          Alcotest.test_case "register_of" `Quick test_register_of;
          Alcotest.test_case "register_of: first register wins" `Quick
            test_register_of_table;
          Alcotest.test_case "optimal on all benchmarks" `Quick
            test_left_edge_optimal_on_benchmarks;
        ] );
    ]
