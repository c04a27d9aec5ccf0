module H = Test_helpers
module Pasap = Pchls_sched.Pasap
module Schedule = Pchls_sched.Schedule
module Graph = Pchls_dfg.Graph
module Profile = Pchls_power.Profile
module B = Pchls_dfg.Benchmarks

let feasible = function
  | Pasap.Feasible s -> s
  | Pasap.Infeasible { node; reason } ->
    Alcotest.fail (Printf.sprintf "infeasible at %d: %s" node reason)

let infeasible_node = function
  | Pasap.Feasible _ -> Alcotest.fail "expected infeasible"
  | Pasap.Infeasible { node; _ } -> node

let check_power g s ~info ~limit =
  let horizon = Schedule.makespan s ~info in
  let p = Schedule.profile s ~info ~horizon in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.2f <= %.2f" (Profile.peak p) limit)
    true
    (Profile.peak p <= limit +. Profile.eps);
  ignore g

let test_unconstrained_equals_asap () =
  let g = B.hal in
  let info = H.table1_info () g in
  let asap = Pchls_sched.Asap.run g ~info in
  let s = feasible (Pasap.run g ~info ~horizon:40 ()) in
  Alcotest.(check (list (pair int int)))
    "same schedule" (Schedule.bindings asap) (Schedule.bindings s)

(* fork4 has four independent adds; with power for only one add per cycle
   they must serialize. *)
let test_power_serializes () =
  let g = H.fork4 () in
  let info = H.uniform_info ~power:2. () in
  let s = feasible (Pasap.run g ~info ~horizon:20 ~power_limit:2. ()) in
  H.check_total g s;
  H.check_precedences g s ~info;
  check_power g s ~info ~limit:2.;
  (* the four parallel adds now occupy four distinct cycles *)
  let starts = List.sort compare (List.map (Schedule.start s) [ 1; 2; 3; 4 ]) in
  Alcotest.(check (list int)) "serialized" [ 1; 2; 3; 4 ] starts

let test_power_loose_keeps_parallel () =
  let g = H.fork4 () in
  let info = H.uniform_info ~power:2. () in
  let s = feasible (Pasap.run g ~info ~horizon:20 ~power_limit:8. ()) in
  let starts = List.sort_uniq compare (List.map (Schedule.start s) [ 1; 2; 3; 4 ]) in
  Alcotest.(check (list int)) "all four in cycle 1" [ 1 ] starts

let test_infeasible_when_op_exceeds_limit () =
  let g = H.chain3 () in
  let info = H.uniform_info ~power:5. () in
  let node = infeasible_node (Pasap.run g ~info ~horizon:10 ~power_limit:4. ()) in
  Alcotest.(check bool) "some node blamed" true (Graph.mem g node)

let test_infeasible_when_horizon_too_small () =
  let g = H.chain3 () in
  let info = H.uniform_info () in
  let node = infeasible_node (Pasap.run g ~info ~horizon:2 ()) in
  Alcotest.(check bool) "blames a node" true (Graph.mem g node)

let test_all_benchmarks_feasible_with_budget () =
  List.iter
    (fun (name, g) ->
      let info = H.table1_info () g in
      let cp =
        Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
      in
      let limit = 12. in
      let s =
        feasible (Pasap.run g ~info ~horizon:(cp * 4) ~power_limit:limit ())
      in
      H.check_total g s;
      H.check_precedences g s ~info;
      check_power g s ~info ~limit;
      ignore name)
    B.all

let test_locked_respected () =
  let g = H.chain3 () in
  let info = H.uniform_info () in
  let s = feasible (Pasap.run g ~info ~horizon:10 ~locked:[ (1, 5) ] ()) in
  Alcotest.(check int) "locked op kept" 5 (Schedule.start s 1);
  Alcotest.(check bool) "succ after locked" true (Schedule.start s 2 >= 6)

let test_locked_power_reserved () =
  (* Locked op occupies the only power slot of cycle 0, pushing source away. *)
  let g =
    Graph.create_exn ~name:"pair"
      ~nodes:
        [
          { Graph.id = 0; name = "i1"; kind = Pchls_dfg.Op.Input };
          { Graph.id = 1; name = "i2"; kind = Pchls_dfg.Op.Input };
        ]
      ~edges:[]
  in
  let info = H.uniform_info ~power:3. () in
  let s =
    feasible (Pasap.run g ~info ~horizon:5 ~power_limit:3. ~locked:[ (0, 0) ] ())
  in
  Alcotest.(check int) "unlocked shifted" 1 (Schedule.start s 1)

let test_locked_outside_horizon_infeasible () =
  let g = H.chain3 () in
  let info = H.uniform_info () in
  Alcotest.(check int) "blames locked node" 1
    (infeasible_node (Pasap.run g ~info ~horizon:5 ~locked:[ (1, 9) ] ()))

let test_locked_precedence_violation_detected () =
  let g = H.chain3 () in
  let info = H.uniform_info () in
  (* node 1 locked at 0 but its predecessor 0 needs cycle 0 too *)
  Alcotest.(check int) "blames succ" 1
    (infeasible_node (Pasap.run g ~info ~horizon:5 ~locked:[ (1, 0) ] ()))

let test_locked_overload_detected () =
  let g =
    Graph.create_exn ~name:"pair"
      ~nodes:
        [
          { Graph.id = 0; name = "i1"; kind = Pchls_dfg.Op.Input };
          { Graph.id = 1; name = "i2"; kind = Pchls_dfg.Op.Input };
        ]
      ~edges:[]
  in
  let info = H.uniform_info ~power:3. () in
  match
    Pasap.run g ~info ~horizon:5 ~power_limit:4. ~locked:[ (0, 0); (1, 0) ] ()
  with
  | Pasap.Feasible _ -> Alcotest.fail "locked ops exceed budget together"
  | Pasap.Infeasible _ -> ()

let test_locked_validation () =
  let g = H.chain3 () in
  let info = H.uniform_info () in
  Alcotest.(check bool) "unknown locked id" true
    (try
       ignore (Pasap.run g ~info ~horizon:5 ~locked:[ (99, 0) ] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "double lock" true
    (try
       ignore (Pasap.run g ~info ~horizon:5 ~locked:[ (1, 1); (1, 2) ] ());
       false
     with Invalid_argument _ -> true)

(* The array entry point: -1 marks a free index, locked power goes in
   [lock_order] (ascending by default), and the node named for an overload
   is [overload_node], by default the id at that order's head. *)
let test_starts_locks () =
  let g =
    Graph.create_exn ~name:"pair"
      ~nodes:
        [
          { Graph.id = 4; name = "i1"; kind = Pchls_dfg.Op.Input };
          { Graph.id = 9; name = "i2"; kind = Pchls_dfg.Op.Input };
        ]
      ~edges:[]
  in
  let latency = [| 1; 1 |] and power = [| 3.; 3. |] in
  let run ?lock_order ?overload_node ~power_limit locked =
    Pasap.starts g ~latency ~power ~locked ?lock_order ?overload_node
      ~horizon:5 ~power_limit ()
  in
  let node = function
    | Pasap.Feasible _ -> Alcotest.fail "locked ops exceed budget together"
    | Pasap.Infeasible { node; _ } -> node
  in
  (match run ~power_limit:3. [| 0; -1 |] with
  | Pasap.Feasible a ->
    Alcotest.(check (array int)) "free index moved" [| 0; 1 |] a
  | Pasap.Infeasible { reason; _ } -> Alcotest.fail reason);
  Alcotest.(check int) "ascending head" 4 (node (run ~power_limit:4. [| 0; 0 |]));
  Alcotest.(check int) "given order's head" 9
    (node (run ~lock_order:[| 1; 0 |] ~power_limit:4. [| 0; 0 |]));
  Alcotest.(check int) "given node" 7
    (node (run ~overload_node:7 ~power_limit:4. [| 0; 0 |]));
  Alcotest.(check bool) "index twice in lock_order" true
    (try
       ignore (run ~lock_order:[| 0; 0 |] ~power_limit:9. [| 0; 0 |]);
       false
     with Invalid_argument _ -> true)

(* [starts] reads its arrays and answers a fresh one, the same as [run]'s
   schedule. *)
let test_starts_own_array () =
  let g = B.hal in
  let info = H.table1_info () g in
  let ids = Array.of_list (Graph.node_ids g) in
  let latency = Array.map (fun id -> (info id).Schedule.latency) ids in
  let power = Array.map (fun id -> (info id).Schedule.power) ids in
  let locked = Array.make (Array.length ids) (-1) in
  let copies = (Array.copy latency, Array.copy power, Array.copy locked) in
  let starts () =
    match
      Pasap.starts g ~latency ~power ~locked ~horizon:20 ~power_limit:10. ()
    with
    | Pasap.Feasible a -> a
    | Pasap.Infeasible { reason; _ } -> Alcotest.fail reason
  in
  let a = starts () in
  let s = feasible (Pasap.run g ~info ~horizon:20 ~power_limit:10. ()) in
  Alcotest.(check (list (pair int int)))
    "same as run" (Schedule.bindings s)
    (Array.to_list (Array.mapi (fun i t -> (ids.(i), t)) a));
  Array.fill a 0 (Array.length a) (-7);
  Alcotest.(check bool) "fresh answer" true (starts () <> a);
  Alcotest.(check bool) "arguments untouched" true
    (copies = (latency, power, locked))

let test_deterministic () =
  let g = B.elliptic in
  let info = H.table1_info () g in
  let a = feasible (Pasap.run g ~info ~horizon:40 ~power_limit:15. ()) in
  let b = feasible (Pasap.run g ~info ~horizon:40 ~power_limit:15. ()) in
  Alcotest.(check (list (pair int int)))
    "same run twice" (Schedule.bindings a) (Schedule.bindings b)

let test_schedule_exn () =
  Alcotest.(check bool) "raises on infeasible" true
    (try
       ignore
         (Pasap.schedule_exn (Pasap.Infeasible { node = 1; reason = "x" }));
       false
     with Failure _ -> true)

let test_tighter_budget_never_shorter () =
  let g = B.hal in
  let info = H.table1_info () g in
  let ms limit =
    let s = feasible (Pasap.run g ~info ~horizon:60 ~power_limit:limit ()) in
    Schedule.makespan s ~info
  in
  Alcotest.(check bool) "monotone stretch" true (ms 6. >= ms 12.);
  Alcotest.(check bool) "monotone stretch 2" true (ms 12. >= ms 100.)

(* The loop polls [cancelled] once per test and once when every operation
   is placed. A test places an operation, or puts its (latency, power)
   class to sleep until a later cycle, or reports the infeasibility that
   ends the run: so a run polls at most [placed + C * (horizon + 1) + 1]
   times, for C distinct (latency, power) pairs among the unlocked
   operations. *)
let polls run =
  let count = ref 0 in
  let outcome =
    run (fun () ->
        incr count;
        false)
  in
  (outcome, !count)

let poll_bound g ~info ~horizon ~locked =
  let unlocked =
    List.filter (fun id -> not (List.mem_assoc id locked)) (Graph.node_ids g)
  in
  let classes =
    List.sort_uniq compare
      (List.map
         (fun id ->
           let { Schedule.latency; power } = info id in
           (latency, power))
         unlocked)
  in
  List.length unlocked + (List.length classes * (horizon + 1)) + 1

(* Random graphs with random or Table 1 infos, optionally modulo, with
   some operations locked at their ASAP start. *)
let poll_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* max_nodes = 1 -- 60 in
    let g = Pchls_dfg.Generator.sized ~seed ~max_nodes () in
    let* specs = opt ~ratio:0.5 (H.random_specs g) in
    let info =
      match specs with None -> H.table1_info () g | Some s -> H.spec_info s
    in
    let cp = Graph.critical_path g ~latency:(fun id -> (info id).latency) in
    let* horizon = cp -- (3 * cp) in
    let* power_limit = oneofl [ 4.; 8.; 12.; 20.; infinity ] in
    let* period = opt ~ratio:0.3 (1 -- 16) in
    let* density = oneofl [ 0.; 0.2; 0.6 ] in
    let* picks =
      flatten_l
        (List.map (fun _ -> float_bound_inclusive 1.) (Graph.node_ids g))
    in
    let asap = Pchls_sched.Asap.run g ~info in
    let locked =
      List.filter_map
        (fun ((id, t), pick) -> if pick < density then Some (id, t) else None)
        (List.combine (Schedule.bindings asap) picks)
    in
    return (g, info, horizon, power_limit, period, locked))

let prop_polls_bounded =
  QCheck.Test.make ~name:"polls <= placed + C*(horizon+1) + 1" ~count:300
    (QCheck.make poll_case_gen
       ~print:(fun (g, _, horizon, p, period, locked) ->
         Format.asprintf "%a T=%d P<=%g period=%s locked=%d" Graph.pp g
           horizon p
           (match period with Some p -> string_of_int p | None -> "none")
           (List.length locked)))
    (fun (g, info, horizon, power_limit, period, locked) ->
      let _, n =
        polls (fun cancelled ->
            Pasap.run g ~info ~horizon ~power_limit ?period ~locked ~cancelled
              ())
      in
      n <= poll_bound g ~info ~horizon ~locked)

(* The 988-op scaling graph at T = 301, P< = 40 under Table 1's min-power
   modules: adds, subtracts and compares share (1, 2.5) and multiplies
   are (4, 2.7), so two classes and at most 988 + 2 * 302 + 1 polls,
   where re-testing every waiting operation at every cycle took 26 041. *)
let test_polls_on_scaling_graph () =
  let g = Pchls_dfg.Generator.sized ~seed:2 ~max_nodes:1000 () in
  let info = H.table1_info () g in
  let cp = Graph.critical_path g ~latency:(fun id -> (info id).latency) in
  let horizon = (2 * cp) + (Graph.node_count g / 4) in
  Alcotest.(check int) "horizon" 301 horizon;
  let outcome, n =
    polls (fun cancelled ->
        Pasap.run g ~info ~horizon ~power_limit:40. ~cancelled ())
  in
  ignore (feasible outcome);
  Alcotest.(check int) "bound" 1593 (poll_bound g ~info ~horizon ~locked:[]);
  Alcotest.(check bool) (Printf.sprintf "%d polls <= 1593" n) true (n <= 1593)

let () =
  Alcotest.run "pasap"
    [
      ( "pasap",
        [
          Alcotest.test_case "infinite budget equals asap" `Quick
            test_unconstrained_equals_asap;
          Alcotest.test_case "tight budget serializes parallel ops" `Quick
            test_power_serializes;
          Alcotest.test_case "loose budget keeps parallelism" `Quick
            test_power_loose_keeps_parallel;
          Alcotest.test_case "op above limit is infeasible" `Quick
            test_infeasible_when_op_exceeds_limit;
          Alcotest.test_case "horizon too small is infeasible" `Quick
            test_infeasible_when_horizon_too_small;
          Alcotest.test_case "all benchmarks under a 12-power budget" `Quick
            test_all_benchmarks_feasible_with_budget;
          Alcotest.test_case "tighter budget never shortens makespan" `Quick
            test_tighter_budget_never_shorter;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "schedule_exn raises" `Quick test_schedule_exn;
        ] );
      ( "polls",
        [
          QCheck_alcotest.to_alcotest prop_polls_bounded;
          Alcotest.test_case "one test per class per cycle at 1k ops" `Quick
            test_polls_on_scaling_graph;
        ] );
      ( "locking",
        [
          Alcotest.test_case "locked times respected" `Quick test_locked_respected;
          Alcotest.test_case "locked power reserved" `Quick
            test_locked_power_reserved;
          Alcotest.test_case "locked outside horizon rejected" `Quick
            test_locked_outside_horizon_infeasible;
          Alcotest.test_case "locked precedence violation rejected" `Quick
            test_locked_precedence_violation_detected;
          Alcotest.test_case "locked overload rejected" `Quick
            test_locked_overload_detected;
          Alcotest.test_case "locked argument validation" `Quick
            test_locked_validation;
          Alcotest.test_case "starts: free marker, lock order" `Quick
            test_starts_locks;
          Alcotest.test_case "starts: fresh answer, arguments kept" `Quick
            test_starts_own_array;
        ] );
    ]
