(* Seeded-violation tests: each checker must fire its exact code on a
   deliberately broken artifact, and Analysis.run_all must be clean on every
   built-in benchmark at the paper's (T, P<) points. *)

module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Benchmarks = Pchls_dfg.Benchmarks
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Schedule = Pchls_sched.Schedule
module Design = Pchls_core.Design
module Cost_model = Pchls_core.Cost_model
module Engine = Pchls_core.Engine
module Netlist = Pchls_rtl.Netlist
module Diag = Pchls_diag.Diag
module Analysis = Pchls_analysis.Analysis
module Dfg_lint = Pchls_analysis.Dfg_lint
module Bind_lint = Pchls_analysis.Bind_lint
module Netlist_lint = Pchls_analysis.Netlist_lint
module H = Test_helpers

let codes ds = List.map (fun d -> d.Diag.code) ds

let check_fires name code ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s (got: %s)" name code
       (String.concat "," (codes ds)))
    true
    (List.mem code (codes ds))

let check_clean name ds =
  Alcotest.(check (list string)) (name ^ " clean") [] (codes ds)

let node id name kind = { Graph.id; name; kind }
let spec name = Library.find_exn Library.default name
let info1 _ = { Schedule.latency = 1; power = 1. }

(* --- dfg_lint --------------------------------------------------------- *)

let test_dfg_cycle () =
  let nodes = [ node 0 "a" Op.Add; node 1 "b" Op.Add; node 2 "c" Op.Add ] in
  let ds = Dfg_lint.lint_raw ~nodes ~edges:[ (0, 1); (1, 2); (2, 0) ] in
  check_fires "cycle" "DFG001" ds

let test_dfg_dangling_edge () =
  let ds =
    Dfg_lint.lint_raw ~nodes:[ node 0 "a" Op.Add ] ~edges:[ (0, 7) ]
  in
  check_fires "dangling endpoint" "DFG002" ds

let test_dfg_duplicate_edge () =
  let nodes = [ node 0 "a" Op.Add; node 1 "b" Op.Add ] in
  let ds = Dfg_lint.lint_raw ~nodes ~edges:[ (0, 1); (0, 1) ] in
  check_fires "duplicate edge" "DFG003" ds

let test_dfg_self_loop () =
  let ds = Dfg_lint.lint_raw ~nodes:[ node 0 "a" Op.Add ] ~edges:[ (0, 0) ] in
  check_fires "self loop" "DFG004" ds

let test_dfg_bad_ids () =
  let ds =
    Dfg_lint.lint_raw
      ~nodes:[ node 0 "a" Op.Add; node 0 "b" Op.Add; node (-1) "c" Op.Add ]
      ~edges:[]
  in
  check_fires "duplicate id" "DFG005" ds;
  Alcotest.(check int) "both id defects" 2
    (List.length (List.filter (String.equal "DFG005") (codes ds)))

let test_dfg_uncovered_kind () =
  let add_only =
    Library.of_list_exn
      [
        Module_spec.make_exn ~name:"add" ~ops:[ Op.Add ] ~area:10. ~latency:1
          ~power:1.;
      ]
  in
  let ds = Dfg_lint.lint ~library:add_only (H.two_chains ()) in
  check_fires "uncovered kind" "DFG006" ds

let test_dfg_non_output_sink () =
  let g =
    Graph.create_exn ~name:"dead_end"
      ~nodes:[ node 0 "i" Op.Input; node 1 "a" Op.Add ]
      ~edges:[ (0, 1) ]
  in
  let ds = Dfg_lint.lint g in
  check_fires "non-output sink" "DFG007" ds;
  Alcotest.(check bool) "it is only a warning" false (Diag.has_errors ds)

let test_dfg_raw_clean () =
  check_clean "well-formed raw graph"
    (Dfg_lint.lint_raw
       ~nodes:[ node 0 "i" Op.Input; node 1 "a" Op.Add; node 2 "o" Op.Output ]
       ~edges:[ (0, 1); (1, 2) ]);
  check_clean "hal vs default library"
    (Dfg_lint.lint ~library:Library.default Benchmarks.hal)

(* --- schedule lint ---------------------------------------------------- *)

let test_sched_codes () =
  let g = H.chain3 () in
  let unscheduled = Schedule.of_alist [ (0, 0); (2, 2) ] in
  check_fires "unscheduled" "SCH001"
    (Schedule.lint g unscheduled ~info:info1 ());
  let spike = Schedule.of_alist [ (0, 0); (1, 1); (2, 2) ] in
  check_fires "power" "SCH005"
    (Schedule.lint g spike ~info:info1 ~power_limit:0.5 ());
  check_fires "latency" "SCH004"
    (Schedule.lint g spike ~info:info1 ~time_limit:2 ())

(* --- bind_lint -------------------------------------------------------- *)

let lint_chain3 instances =
  Bind_lint.lint_instances ~graph:(H.chain3 ()) ~instances ()

let test_bind_overlap () =
  let g =
    Graph.create_exn ~name:"two_inputs"
      ~nodes:[ node 0 "i0" Op.Input; node 1 "i1" Op.Input ]
      ~edges:[]
  in
  let ds =
    Bind_lint.lint_instances ~graph:g
      ~instances:[ (spec "input", [ (0, 0); (1, 0) ]) ]
      ()
  in
  check_fires "overlap on shared FU" "BND001" ds

let test_bind_incompatible_kind () =
  check_fires "add on multiplier" "BND002"
    (lint_chain3
       [
         (spec "input", [ (0, 0) ]);
         (spec "mult_ser", [ (1, 1) ]);
         (spec "output", [ (2, 5) ]);
       ])

let test_bind_cap_exceeded () =
  let g =
    Graph.create_exn ~name:"two_inputs"
      ~nodes:[ node 0 "i0" Op.Input; node 1 "i1" Op.Input ]
      ~edges:[]
  in
  let ds =
    Bind_lint.lint_instances ~graph:g
      ~max_instances:[ ("input", 1) ]
      ~instances:
        [ (spec "input", [ (0, 0) ]); (spec "input", [ (1, 0) ]) ]
      ()
  in
  check_fires "cap exceeded" "BND003" ds

let test_bind_double_binding () =
  check_fires "double binding" "BND005"
    (lint_chain3
       [
         (spec "input", [ (0, 0) ]);
         (spec "add", [ (1, 1) ]);
         (spec "ALU", [ (1, 3) ]);
         (spec "output", [ (2, 2) ]);
       ])

let test_bind_unknown_op () =
  check_fires "unknown op" "BND006"
    (lint_chain3
       [
         (spec "input", [ (0, 0); (99, 3) ]);
         (spec "add", [ (1, 1) ]);
         (spec "output", [ (2, 2) ]);
       ])

let test_bind_unbound_op () =
  check_fires "unbound op" "BND007"
    (lint_chain3 [ (spec "input", [ (0, 0) ]); (spec "add", [ (1, 1) ]) ])

let test_bind_empty_instance () =
  let ds =
    lint_chain3
      [
        (spec "input", [ (0, 0) ]);
        (spec "add", [ (1, 1) ]);
        (spec "output", [ (2, 2) ]);
        (spec "ALU", []);
      ]
  in
  check_fires "empty instance" "BND008" ds;
  Alcotest.(check bool) "warning only" false (Diag.has_errors ds)

let test_bind_register_overlap () =
  (* Node 0's value lives [1,2] (consumers at 1 and 2); node 1's lives
     [2,2]. Packing both into register 0 must fire BND004. *)
  let g =
    Graph.create_exn ~name:"diamond"
      ~nodes:
        [
          node 0 "i" Op.Input;
          node 1 "a" Op.Add;
          node 2 "b" Op.Add;
          node 3 "o" Op.Output;
        ]
      ~edges:[ (0, 1); (0, 2); (1, 2); (2, 3) ]
  in
  let schedule = Schedule.of_alist [ (0, 0); (1, 1); (2, 2); (3, 3) ] in
  let bad = [| [ 0; 1 ]; [ 2 ] |] in
  let ds = Bind_lint.lint_allocation ~graph:g ~schedule ~info:info1 bad in
  check_fires "register lifetime overlap" "BND004" ds;
  let good = [| [ 0 ]; [ 1 ]; [ 2 ] |] in
  check_clean "disjoint allocation"
    (Bind_lint.lint_allocation ~graph:g ~schedule ~info:info1 good)

(* --- netlist_lint ----------------------------------------------------- *)

(* A small but representative design: one shared register, one shared FU. *)
let netlist_fixture () =
  let d =
    match
      Design.assemble ~cost_model:Cost_model.default ~graph:(H.chain3 ())
        ~time_limit:5 ~power_limit:10.
        ~instances:
          [
            (spec "input", [ (0, 0) ]);
            (spec "add", [ (1, 1) ]);
            (spec "output", [ (2, 2) ]);
          ]
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  (d, Netlist.of_design d)

let test_netlist_clean () =
  let d, n = netlist_fixture () in
  check_clean "faithful netlist" (Netlist_lint.lint ~design:d n)

let test_netlist_wrong_writers () =
  let d, n = netlist_fixture () in
  let broken =
    {
      n with
      Netlist.register_writers =
        List.map (fun (r, _) -> (r, [])) n.Netlist.register_writers;
    }
  in
  check_fires "dropped writer" "NET001" (Netlist_lint.lint ~design:d broken)

let test_netlist_wrong_sources () =
  let d, n = netlist_fixture () in
  let broken =
    { n with Netlist.fu_sources = List.map (fun (f, _) -> (f, [])) n.Netlist.fu_sources }
  in
  check_fires "dropped FU sources" "NET002" (Netlist_lint.lint ~design:d broken)

let test_netlist_wrong_activations () =
  let d, n = netlist_fixture () in
  let broken = { n with Netlist.activations = [] } in
  check_fires "missing activations" "NET003"
    (Netlist_lint.lint ~design:d broken);
  let shifted =
    {
      n with
      Netlist.activations =
        List.map
          (fun (step, pairs) ->
            (step, List.map (fun (fu, op) -> (fu, op + 1)) pairs))
          n.Netlist.activations;
    }
  in
  check_fires "shifted activations" "NET003"
    (Netlist_lint.lint ~design:d shifted)

let test_netlist_dangling_register () =
  let d, n = netlist_fixture () in
  let broken =
    { n with Netlist.fu_sources = List.map (fun (f, _) -> (f, [])) n.Netlist.fu_sources }
  in
  let ds = Netlist_lint.lint ~design:d broken in
  check_fires "register never read" "NET004" ds

let test_netlist_unknown_ids () =
  let d, n = netlist_fixture () in
  let broken =
    { n with Netlist.fu_sources = (99, [ 0 ]) :: n.Netlist.fu_sources }
  in
  check_fires "unknown FU" "NET005" (Netlist_lint.lint ~design:d broken)

(* --- run_all over the built-in benchmarks ----------------------------- *)

(* The paper's Figure 2 operating points (see test_figure2_pin). *)
let paper_points =
  [
    ("hal", Benchmarks.hal, 10, 20.);
    ("hal", Benchmarks.hal, 17, 7.5);
    ("hal", Benchmarks.hal, 17, 10.);
    ("cosine", Benchmarks.cosine, 12, 40.);
    ("cosine", Benchmarks.cosine, 19, 20.);
    ("elliptic", Benchmarks.elliptic, 22, 15.);
  ]

let run_clean name g t p =
  match
    Engine.run ~library:Library.default ~time_limit:t ~power_limit:p g
  with
  | Engine.Infeasible { reason } ->
    Alcotest.fail (Printf.sprintf "%s (T=%d, P<=%g): infeasible: %s" name t p reason)
  | Engine.Synthesized (d, _) ->
    check_clean
      (Printf.sprintf "%s (T=%d, P<=%g)" name t p)
      (Analysis.run_all ~library:Library.default d)

let test_paper_points_clean () =
  List.iter (fun (name, g, t, p) -> run_clean name g t p) paper_points

let test_all_benchmarks_clean () =
  List.iter
    (fun (name, g) ->
      let info = H.table1_info () g in
      let cp =
        Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
      in
      run_clean name g (2 * cp) infinity)
    Benchmarks.all

let test_self_check_engine () =
  (* hal at (17, 10) backtracks at least once, so the self-check path runs. *)
  match
    Engine.run ~library:Library.default ~self_check:true ~time_limit:17
      ~power_limit:10. Benchmarks.hal
  with
  | Engine.Synthesized (_, stats) ->
    Alcotest.(check bool) "exercised a backtrack" true (stats.Engine.backtracks >= 1)
  | Engine.Infeasible { reason } -> Alcotest.fail reason

let () =
  Alcotest.run "analysis"
    [
      ( "dfg_lint",
        [
          Alcotest.test_case "cycle -> DFG001" `Quick test_dfg_cycle;
          Alcotest.test_case "dangling edge -> DFG002" `Quick
            test_dfg_dangling_edge;
          Alcotest.test_case "duplicate edge -> DFG003" `Quick
            test_dfg_duplicate_edge;
          Alcotest.test_case "self loop -> DFG004" `Quick test_dfg_self_loop;
          Alcotest.test_case "bad ids -> DFG005" `Quick test_dfg_bad_ids;
          Alcotest.test_case "uncovered kind -> DFG006" `Quick
            test_dfg_uncovered_kind;
          Alcotest.test_case "non-output sink -> DFG007" `Quick
            test_dfg_non_output_sink;
          Alcotest.test_case "clean inputs stay clean" `Quick test_dfg_raw_clean;
        ] );
      ( "sched_lint",
        [ Alcotest.test_case "SCH codes via wrapper" `Quick test_sched_codes ] );
      ( "bind_lint",
        [
          Alcotest.test_case "FU overlap -> BND001" `Quick test_bind_overlap;
          Alcotest.test_case "incompatible kind -> BND002" `Quick
            test_bind_incompatible_kind;
          Alcotest.test_case "cap exceeded -> BND003" `Quick
            test_bind_cap_exceeded;
          Alcotest.test_case "register overlap -> BND004" `Quick
            test_bind_register_overlap;
          Alcotest.test_case "double binding -> BND005" `Quick
            test_bind_double_binding;
          Alcotest.test_case "unknown op -> BND006" `Quick test_bind_unknown_op;
          Alcotest.test_case "unbound op -> BND007" `Quick test_bind_unbound_op;
          Alcotest.test_case "empty instance -> BND008" `Quick
            test_bind_empty_instance;
        ] );
      ( "netlist_lint",
        [
          Alcotest.test_case "faithful netlist is clean" `Quick
            test_netlist_clean;
          Alcotest.test_case "wrong writers -> NET001" `Quick
            test_netlist_wrong_writers;
          Alcotest.test_case "wrong sources -> NET002" `Quick
            test_netlist_wrong_sources;
          Alcotest.test_case "wrong activations -> NET003" `Quick
            test_netlist_wrong_activations;
          Alcotest.test_case "dangling register -> NET004" `Quick
            test_netlist_dangling_register;
          Alcotest.test_case "unknown ids -> NET005" `Quick
            test_netlist_unknown_ids;
        ] );
      ( "run_all",
        [
          Alcotest.test_case "paper (T,P<) points are clean" `Quick
            test_paper_points_clean;
          Alcotest.test_case "all benchmarks clean at 2x critical path" `Quick
            test_all_benchmarks_clean;
          Alcotest.test_case "engine self-check passes" `Quick
            test_self_check_engine;
        ] );
    ]
