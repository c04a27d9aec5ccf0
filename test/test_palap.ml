module H = Test_helpers
module Pasap = Pchls_sched.Pasap
module Palap = Pchls_sched.Palap
module Alap = Pchls_sched.Alap
module Schedule = Pchls_sched.Schedule
module Graph = Pchls_dfg.Graph
module Profile = Pchls_power.Profile
module B = Pchls_dfg.Benchmarks

let feasible = function
  | Pasap.Feasible s -> s
  | Pasap.Infeasible { node; reason } ->
    Alcotest.fail (Printf.sprintf "infeasible at %d: %s" node reason)

let test_unconstrained_equals_alap () =
  let g = B.hal in
  let info = H.table1_info () g in
  let alap = Alap.run g ~info ~horizon:20 in
  let s = feasible (Palap.run g ~info ~horizon:20 ()) in
  Alcotest.(check (list (pair int int)))
    "same schedule" (Schedule.bindings alap) (Schedule.bindings s)

let test_power_constrained_valid () =
  List.iter
    (fun (_, g) ->
      let info = H.table1_info () g in
      let cp =
        Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
      in
      let horizon = cp * 4 in
      let limit = 12. in
      let s = feasible (Palap.run g ~info ~horizon ~power_limit:limit ()) in
      H.check_total g s;
      H.check_precedences g s ~info;
      let p = Schedule.profile s ~info ~horizon in
      Alcotest.(check bool) "peak within limit" true
        (Profile.peak p <= limit +. Profile.eps);
      Alcotest.(check bool) "within horizon" true
        (Schedule.makespan s ~info <= horizon))
    B.all

let test_power_spreads_backwards () =
  let g = H.fork4 () in
  let info = H.uniform_info ~power:2. () in
  let s = feasible (Palap.run g ~info ~horizon:20 ~power_limit:2. ()) in
  let starts = List.sort compare (List.map (Schedule.start s) [ 1; 2; 3; 4 ]) in
  Alcotest.(check int) "four distinct cycles" 4
    (List.length (List.sort_uniq compare starts))

let test_palap_not_before_pasap_unconstrained () =
  (* Without a power limit, palap = alap and pasap = asap, so every window
     [asap, alap] is non-empty. (Under a power limit both are heuristics and
     windows can invert — the engine handles that case by falling back to
     fresh instances, see Engine.) *)
  List.iter
    (fun (_, g) ->
      let info = H.table1_info () g in
      let cp =
        Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
      in
      let horizon = cp * 3 in
      let early = feasible (Pasap.run g ~info ~horizon ()) in
      let late = feasible (Palap.run g ~info ~horizon ()) in
      List.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "window of %d non-empty" id)
            true
            (Schedule.start late id >= Schedule.start early id))
        (Graph.node_ids g))
    B.all

let test_infeasible_propagates () =
  let g = H.chain3 () in
  let info = H.uniform_info ~power:5. () in
  match Palap.run g ~info ~horizon:10 ~power_limit:4. () with
  | Pasap.Feasible _ -> Alcotest.fail "expected infeasible"
  | Pasap.Infeasible _ -> ()

let test_locked_respected () =
  let g = H.chain3 () in
  let info = H.uniform_info () in
  let s = feasible (Palap.run g ~info ~horizon:10 ~locked:[ (1, 5) ] ()) in
  Alcotest.(check int) "locked stays in forward time" 5 (Schedule.start s 1);
  Alcotest.(check bool) "pred before it" true (Schedule.start s 0 < 5);
  Alcotest.(check bool) "succ after it" true (Schedule.start s 2 >= 6)

(* Locks are checked before they are mirrored, so an id not in the graph
   raises as it does for pasap instead of escaping from [info]. *)
let test_locked_validation () =
  let g = B.hal in
  let info = H.table1_info () g in
  let raises locked =
    try
      ignore (Palap.run g ~info ~horizon:20 ~locked ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unknown locked id" true (raises [ (999, 0) ]);
  Alcotest.(check bool) "double lock" true (raises [ (1, 1); (1, 2) ])

(* A forward lock one cycle past the last start mirrors to -1, the free
   marker; it must still be a lock, and rejected. *)
let test_lock_past_horizon_by_one () =
  let g = H.chain3 () in
  let n = Graph.node_count g in
  let answer =
    Palap.starts g ~latency:(Array.make n 1) ~power:(Array.make n 1.)
      ~locked:[| -1; 10; -1 |] ~horizon:10 ()
  in
  match answer with
  | Pasap.Feasible _ -> Alcotest.fail "lock past the horizon accepted"
  | Pasap.Infeasible { node; _ } -> Alcotest.(check int) "blames it" 1 node

(* The array entry point answers the start of every index, as [run] does
   by id, and leaves its arguments alone. *)
let test_starts_match_run () =
  let g = B.elliptic in
  let info = H.table1_info () g in
  let ids = Array.of_list (Graph.node_ids g) in
  let latency = Array.map (fun id -> (info id).Schedule.latency) ids in
  let power = Array.map (fun id -> (info id).Schedule.power) ids in
  let locked = Array.make (Array.length ids) (-1) in
  let fwd = feasible (Palap.run g ~info ~horizon:30 ~power_limit:15. ()) in
  locked.(3) <- Schedule.start fwd ids.(3);
  let s =
    feasible (Palap.run g ~info ~horizon:30 ~power_limit:15.
                ~locked:[ (ids.(3), locked.(3)) ] ())
  in
  match
    Palap.starts g ~latency ~power ~locked ~horizon:30 ~power_limit:15. ()
  with
  | Pasap.Infeasible { reason; _ } -> Alcotest.fail reason
  | Pasap.Feasible a ->
    Alcotest.(check (list (pair int int)))
      "same starts" (Schedule.bindings s)
      (Array.to_list (Array.mapi (fun i t -> (ids.(i), t)) a));
    Alcotest.(check int) "lock untouched" (Schedule.start fwd ids.(3))
      locked.(3)

let test_deterministic () =
  let g = B.cosine in
  let info = H.table1_info () g in
  let a = feasible (Palap.run g ~info ~horizon:30 ~power_limit:20. ()) in
  let b = feasible (Palap.run g ~info ~horizon:30 ~power_limit:20. ()) in
  Alcotest.(check (list (pair int int)))
    "same run twice" (Schedule.bindings a) (Schedule.bindings b)

let () =
  Alcotest.run "palap"
    [
      ( "palap",
        [
          Alcotest.test_case "infinite budget equals alap" `Quick
            test_unconstrained_equals_alap;
          Alcotest.test_case "power-constrained schedules valid" `Quick
            test_power_constrained_valid;
          Alcotest.test_case "tight budget spreads ops" `Quick
            test_power_spreads_backwards;
          Alcotest.test_case "unconstrained windows never invert" `Quick
            test_palap_not_before_pasap_unconstrained;
          Alcotest.test_case "infeasibility propagates" `Quick
            test_infeasible_propagates;
          Alcotest.test_case "locked times respected" `Quick test_locked_respected;
          Alcotest.test_case "locked ids validated" `Quick
            test_locked_validation;
          Alcotest.test_case "lock past horizon by one" `Quick
            test_lock_past_horizon_by_one;
          Alcotest.test_case "starts == run" `Quick test_starts_match_run;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
    ]
