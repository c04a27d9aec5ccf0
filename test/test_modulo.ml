module H = Test_helpers
module Modulo = Pchls_sched.Modulo
module Pasap = Pchls_sched.Pasap
module Schedule = Pchls_sched.Schedule
module Folded = Pchls_power.Folded
module Graph = Pchls_dfg.Graph
module B = Pchls_dfg.Benchmarks

let feasible = function
  | Pasap.Feasible s -> s
  | Pasap.Infeasible { node; reason } ->
    Alcotest.fail (Printf.sprintf "infeasible at %d: %s" node reason)

(* --- folded ledger ------------------------------------------------------ *)

let test_folded_basic () =
  let p = Folded.create ~period:4 in
  Folded.add p ~start:1 ~latency:2 ~power:3.;
  Alcotest.(check (float 1e-9)) "class 1" 3. (Folded.get p 1);
  Alcotest.(check (float 1e-9)) "class 2" 3. (Folded.get p 2);
  Alcotest.(check (float 1e-9)) "class 0" 0. (Folded.get p 0);
  Alcotest.(check (float 1e-9)) "peak" 3. (Folded.peak p)

let test_folded_wraps () =
  let p = Folded.create ~period:3 in
  (* start 2, latency 2: cycles 2 and 3 -> classes 2 and 0 *)
  Folded.add p ~start:2 ~latency:2 ~power:1.;
  Alcotest.(check (float 1e-9)) "class 2" 1. (Folded.get p 2);
  Alcotest.(check (float 1e-9)) "class 0" 1. (Folded.get p 0);
  Alcotest.(check (float 1e-9)) "class 1" 0. (Folded.get p 1)

let test_folded_self_overlap () =
  (* latency 7 over period 3: two full wraps + one extra class. *)
  let p = Folded.create ~period:3 in
  Folded.add p ~start:0 ~latency:7 ~power:2.;
  Alcotest.(check (float 1e-9)) "class 0: 3 hits" 6. (Folded.get p 0);
  Alcotest.(check (float 1e-9)) "class 1: 2 hits" 4. (Folded.get p 1);
  Alcotest.(check (float 1e-9)) "class 2: 2 hits" 4. (Folded.get p 2)

let test_folded_add_remove_identity () =
  let p = Folded.create ~period:5 in
  Folded.add p ~start:3 ~latency:9 ~power:1.5;
  Folded.add p ~start:0 ~latency:2 ~power:0.7;
  Folded.remove p ~start:3 ~latency:9 ~power:1.5;
  Folded.remove p ~start:0 ~latency:2 ~power:0.7;
  Array.iter
    (fun v -> Alcotest.(check (float 1e-9)) "zero" 0. v)
    (Folded.to_array p)

let test_folded_fits () =
  let p = Folded.create ~period:2 in
  Folded.add p ~start:0 ~latency:1 ~power:4.;
  Alcotest.(check bool) "fits in the other class" true
    (Folded.fits p ~start:1 ~latency:1 ~power:4. ~limit:4.);
  Alcotest.(check bool) "clashes in the same class" false
    (Folded.fits p ~start:2 ~latency:1 ~power:1. ~limit:4.)

(* --- modulo scheduler --------------------------------------------------- *)

let test_equals_pasap_when_ii_is_horizon () =
  (* With ii >= makespan nothing folds: same result as pasap. *)
  let g = B.hal in
  let info = H.table1_info () g in
  let pasap = feasible (Pasap.run g ~info ~horizon:40 ~power_limit:12. ()) in
  let modulo =
    feasible (Pasap.run g ~info ~horizon:40 ~power_limit:12. ~period:40 ())
  in
  Alcotest.(check (list (pair int int)))
    "same schedule" (Schedule.bindings pasap) (Schedule.bindings modulo)

let test_steady_state_respects_limit () =
  List.iter
    (fun (_, g) ->
      let info = H.table1_info () g in
      let cp =
        Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
      in
      let limit = 14. in
      match Modulo.min_feasible_ii g ~info ~horizon:(cp * 6) ~power_limit:limit with
      | None -> Alcotest.fail "no feasible interval"
      | Some (ii, s) ->
        H.check_total g s;
        H.check_precedences g s ~info;
        Alcotest.(check bool)
          (Printf.sprintf "folded peak within %g at ii=%d" limit ii)
          true
          (Modulo.steady_state_peak s ~info ~ii <= limit +. 1e-9))
    B.all

let test_energy_lower_bound () =
  (* The steady-state average power is energy/ii, so a feasible ii is never
     below ceil(energy / limit). *)
  let g = B.elliptic in
  let info = H.table1_info () g in
  let energy =
    List.fold_left
      (fun acc id ->
        let i = info id in
        acc +. (float_of_int i.Schedule.latency *. i.Schedule.power))
      0. (Graph.node_ids g)
  in
  let limit = 12. in
  match Modulo.min_feasible_ii g ~info ~horizon:200 ~power_limit:limit with
  | None -> Alcotest.fail "no feasible interval"
  | Some (ii, _) ->
    Alcotest.(check bool)
      (Printf.sprintf "ii=%d >= energy bound %.1f" ii (energy /. limit))
      true
      (float_of_int ii >= energy /. limit)

let test_tighter_power_larger_ii () =
  let g = B.cosine in
  let info = H.table1_info () g in
  let min_ii limit =
    match Modulo.min_feasible_ii g ~info ~horizon:300 ~power_limit:limit with
    | Some (ii, _) -> ii
    | None -> max_int
  in
  Alcotest.(check bool) "monotone" true (min_ii 10. >= min_ii 20.);
  Alcotest.(check bool) "monotone 2" true (min_ii 20. >= min_ii 50.)

let test_pipelining_beats_sequential_throughput () =
  (* The whole point: the initiation interval can be far below the
     sequential makespan while still meeting the same power cap. *)
  let g = B.elliptic in
  let info = H.table1_info () g in
  let limit = 15. in
  let sequential =
    Schedule.makespan
      (feasible (Pasap.run g ~info ~horizon:120 ~power_limit:limit ()))
      ~info
  in
  match Modulo.min_feasible_ii g ~info ~horizon:120 ~power_limit:limit with
  | None -> Alcotest.fail "no feasible interval"
  | Some (ii, _) ->
    Alcotest.(check bool)
      (Printf.sprintf "ii %d < sequential makespan %d" ii sequential)
      true (ii < sequential)

let test_infeasible_when_op_exceeds_limit () =
  let g = H.chain3 () in
  let info = H.uniform_info ~power:5. () in
  match Pasap.run g ~info ~horizon:20 ~power_limit:4. ~period:4 () with
  | Pasap.Feasible _ -> Alcotest.fail "op above limit accepted"
  | Pasap.Infeasible _ -> ()

let test_validation () =
  let g = H.chain3 () in
  let info = H.uniform_info () in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "ii < 1" true
    (raises (fun () -> Pasap.run g ~info ~horizon:5 ~period:0 ()));
  Alcotest.(check bool) "negative horizon" true
    (raises (fun () -> Pasap.run g ~info ~horizon:(-1) ~period:2 ()))

let () =
  Alcotest.run "modulo"
    [
      ( "folded",
        [
          Alcotest.test_case "basic accumulation" `Quick test_folded_basic;
          Alcotest.test_case "wrapping" `Quick test_folded_wraps;
          Alcotest.test_case "self-overlap" `Quick test_folded_self_overlap;
          Alcotest.test_case "add/remove identity" `Quick
            test_folded_add_remove_identity;
          Alcotest.test_case "fits" `Quick test_folded_fits;
        ] );
      ( "modulo",
        [
          Alcotest.test_case "ii = horizon equals pasap" `Quick
            test_equals_pasap_when_ii_is_horizon;
          Alcotest.test_case "steady state respects limit (all benchmarks)"
            `Quick test_steady_state_respects_limit;
          Alcotest.test_case "energy lower bound" `Quick test_energy_lower_bound;
          Alcotest.test_case "tighter power, larger interval" `Quick
            test_tighter_power_larger_ii;
          Alcotest.test_case "pipelining beats sequential throughput" `Quick
            test_pipelining_beats_sequential_throughput;
          Alcotest.test_case "op above limit infeasible" `Quick
            test_infeasible_when_op_exceeds_limit;
          Alcotest.test_case "argument validation" `Quick test_validation;
        ] );
    ]
