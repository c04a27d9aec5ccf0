module H = Test_helpers
module Engine = Pchls_core.Engine
module Design = Pchls_core.Design
module Cost_model = Pchls_core.Cost_model
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Schedule = Pchls_sched.Schedule
module Profile = Pchls_power.Profile
module B = Pchls_dfg.Benchmarks
module Generator = Pchls_dfg.Generator
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics

let lib = Library.default

let synth ?cost_model ?policy ~t ?p g =
  match Engine.run ?cost_model ?policy ~library:lib ~time_limit:t ?power_limit:p g with
  | Engine.Synthesized (d, s) -> (d, s)
  | Engine.Infeasible { reason } -> Alcotest.fail ("infeasible: " ^ reason)

let infeasible ?policy ~t ?p g =
  match Engine.run ?policy ~library:lib ~time_limit:t ?power_limit:p g with
  | Engine.Synthesized _ -> Alcotest.fail "expected infeasible"
  | Engine.Infeasible { reason } -> reason

(* Every synthesized design is already validated by Design.assemble; these
   checks re-state the user-facing contract. *)
let check_design g d ~t ~p =
  Alcotest.(check bool) "makespan within T" true (Design.makespan d <= t);
  Alcotest.(check bool) "peak within P" true
    (Profile.peak (Design.profile d) <= p +. Profile.eps);
  Alcotest.(check int) "all ops bound" (Graph.node_count g)
    (List.fold_left
       (fun acc i -> acc + List.length i.Design.ops)
       0 (Design.instances d))

let test_chain_minimal () =
  let g = H.chain3 () in
  let d, stats = synth ~t:5 ~p:10. g in
  check_design g d ~t:5 ~p:10.;
  Alcotest.(check int) "three decisions" 3 stats.Engine.decisions;
  (* three different kinds: no sharing possible *)
  Alcotest.(check int) "three instances" 3 (List.length (Design.instances d))

let test_sharing_two_adds () =
  (* fork4 has 7 adds; with a loose T they share one adder. *)
  let g = H.fork4 () in
  let d, _ = synth ~t:20 ~p:100. g in
  let adders =
    List.filter
      (fun i -> Module_spec.implements i.Design.spec Op.Add)
      (Design.instances d)
  in
  Alcotest.(check int) "one shared adder" 1 (List.length adders)

let test_tight_time_forces_more_adders () =
  let g = H.fork4 () in
  (* critical path is 5 (in + 3 tree levels + out); at T=5 the four parallel
     adds cannot share one unit. *)
  let d5, _ = synth ~t:5 ~p:1000. g in
  let d20, _ = synth ~t:20 ~p:1000. g in
  let adders d =
    List.length
      (List.filter
         (fun i -> Module_spec.implements i.Design.spec Op.Add)
         (Design.instances d))
  in
  Alcotest.(check bool) "tight T needs more adders" true (adders d5 > adders d20)

let test_hal_t10_needs_parallel_mult () =
  (* Serial-mult critical path is 12 > 10, so T=10 must allocate at least
     one parallel multiplier (upgrades > 0). *)
  let d, stats = synth ~t:10 ~p:100. B.hal in
  check_design B.hal d ~t:10 ~p:100.;
  Alcotest.(check bool) "upgrades happened" true (stats.Engine.default_upgrades > 0);
  let has_par =
    List.exists
      (fun i -> i.Design.spec.Module_spec.name = "mult_par")
      (Design.instances d)
  in
  Alcotest.(check bool) "parallel multiplier present" true has_par

let test_hal_t17_serial_only () =
  (* At T=17 the serial-mult critical path (12) fits: no upgrade needed. *)
  let d, stats = synth ~t:17 ~p:100. B.hal in
  Alcotest.(check int) "no upgrades" 0 stats.Engine.default_upgrades;
  let has_par =
    List.exists
      (fun i -> i.Design.spec.Module_spec.name = "mult_par")
      (Design.instances d)
  in
  Alcotest.(check bool) "serial multipliers suffice" false has_par

let test_power_constraint_enforced () =
  let p = 8. in
  let d, _ = synth ~t:17 ~p B.hal in
  check_design B.hal d ~t:17 ~p

let test_infeasible_time () =
  (* T=3 cannot fit hal's critical path even with the fastest modules. *)
  let reason = infeasible ~t:3 ~p:1000. B.hal in
  Alcotest.(check bool) "has reason" true (String.length reason > 0)

let test_infeasible_power () =
  (* No input module draws less than 0.2; a limit of 0.1 kills any graph. *)
  let reason = infeasible ~t:100 ~p:0.1 B.hal in
  Alcotest.(check bool) "has reason" true (String.length reason > 0)

let test_all_benchmarks_unconstrained () =
  List.iter
    (fun (name, g) ->
      let info = H.table1_info () g in
      let cp =
        Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
      in
      let d, _ = synth ~t:(cp * 2) g in
      check_design g d ~t:(cp * 2) ~p:infinity;
      ignore name)
    B.all

let test_paper_operating_points () =
  (* The six Figure 2 series at a comfortably feasible power point. *)
  List.iter
    (fun (g, t) ->
      let d, _ = synth ~t ~p:50. g in
      check_design g d ~t ~p:50.)
    [
      (B.hal, 10); (B.hal, 17); (B.cosine, 12); (B.cosine, 15); (B.cosine, 19);
      (B.elliptic, 22);
    ]

let test_area_decreases_with_time_budget () =
  (* More slack -> more sharing -> no more area. *)
  let area t =
    let d, _ = synth ~t ~p:1000. B.hal in
    (Design.area d).Design.total
  in
  Alcotest.(check bool) "T=30 no larger than T=10" true (area 30 <= area 10)

let test_policies_differ_or_agree_but_valid () =
  List.iter
    (fun policy ->
      let d, _ = synth ~policy ~t:17 ~p:20. B.hal in
      check_design B.hal d ~t:17 ~p:20.)
    [ Engine.Min_power; Engine.Min_area; Engine.Min_latency ]

let test_cost_model_changes_area () =
  let d_default, _ = synth ~t:17 ~p:50. B.hal in
  let d_fu, _ = synth ~cost_model:Cost_model.fu_only ~t:17 ~p:50. B.hal in
  Alcotest.(check (float 1e-9)) "fu_only has no reg/mux area" 0.
    ((Design.area d_fu).Design.registers +. (Design.area d_fu).Design.mux);
  Alcotest.(check bool) "default prices registers" true
    ((Design.area d_default).Design.registers > 0.)

let test_deterministic () =
  let run () =
    let d, _ = synth ~t:19 ~p:20. B.cosine in
    ( (Design.area d).Design.total,
      List.map
        (fun i -> (i.Design.spec.Module_spec.name, i.Design.ops))
        (Design.instances d) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical designs" true (a = b)

let test_invalid_arguments () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "t=0" true
    (raises (fun () -> Engine.run ~library:lib ~time_limit:0 B.hal));
  Alcotest.(check bool) "p<=0" true
    (raises (fun () ->
         Engine.run ~library:lib ~time_limit:5 ~power_limit:0. B.hal));
  let tiny =
    Library.of_list_exn
      [
        Module_spec.make_exn ~name:"add" ~ops:[ Op.Add ] ~area:1. ~latency:1
          ~power:1.;
      ]
  in
  Alcotest.(check bool) "uncovered kind" true
    (raises (fun () -> Engine.run ~library:tiny ~time_limit:50 B.hal))

let test_empty_graph () =
  let g = Graph.create_exn ~name:"nothing" ~nodes:[] ~edges:[] in
  let d, stats = synth ~t:1 g in
  Alcotest.(check int) "no instances" 0 (List.length (Design.instances d));
  Alcotest.(check int) "no decisions" 0 stats.Engine.decisions

let test_stats_consistency () =
  let _, s = synth ~t:19 ~p:20. B.cosine in
  Alcotest.(check int) "decision breakdown sums"
    s.Engine.decisions
    (s.Engine.merges + s.Engine.retype_merges + s.Engine.new_instances);
  Alcotest.(check int) "one decision per op" (Graph.node_count B.cosine)
    s.Engine.decisions

let count_spec d name =
  List.length
    (List.filter
       (fun i -> i.Design.spec.Module_spec.name = name)
       (Design.instances d))

let test_instance_caps_respected () =
  (* Unconstrained, hal T=17 uses two serial multipliers; cap it to one. *)
  let d, _ =
    match
      Engine.run ~max_instances:[ ("mult_ser", 1) ] ~library:lib
        ~time_limit:30 ~power_limit:50. B.hal
    with
    | Engine.Synthesized (d, s) -> (d, s)
    | Engine.Infeasible { reason } -> Alcotest.fail reason
  in
  Alcotest.(check bool) "at most one mult_ser" true
    (count_spec d "mult_ser" <= 1);
  check_design B.hal d ~t:30 ~p:50.

let test_instance_caps_can_be_infeasible () =
  (* No multiplier of either kind allowed: hal cannot bind its mults. *)
  match
    Engine.run
      ~max_instances:[ ("mult_ser", 0); ("mult_par", 0) ]
      ~library:lib ~time_limit:30 ~power_limit:50. B.hal
  with
  | Engine.Synthesized _ -> Alcotest.fail "mults have nowhere to run"
  | Engine.Infeasible { reason } ->
    Alcotest.(check bool) "explains the cap" true (String.length reason > 10)

let test_instance_caps_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative cap" true
    (raises (fun () ->
         Engine.run ~max_instances:[ ("add", -1) ] ~library:lib ~time_limit:9
           B.hal));
  Alcotest.(check bool) "unknown module" true
    (raises (fun () ->
         Engine.run ~max_instances:[ ("frobnicator", 1) ] ~library:lib
           ~time_limit:9 B.hal))

let test_retype_builds_alu () =
  (* two_chains has adds and subs with heavy slack: merging them into one
     ALU is cheaper than an adder plus a subtracter. *)
  let g = H.two_chains () in
  let d, _ = synth ~t:20 ~p:100. g in
  let names =
    List.map (fun i -> i.Design.spec.Module_spec.name) (Design.instances d)
  in
  Alcotest.(check bool) "ALU allocated" true (List.mem "ALU" names)

(* When two library modules tie on the key the engine sorts by, the one
   listed first wins; swapping them in the library swaps the pick. *)
let tie_pick ~extra ~t ~p g =
  let table1 =
    List.map (Library.find_exn lib) [ "add"; "sub"; "mult_ser"; "input"; "output" ]
  in
  match
    Engine.run ~library:(Library.of_list_exn (table1 @ extra)) ~time_limit:t
      ~power_limit:p g
  with
  | Engine.Synthesized (d, s) ->
    let extra_names = List.map (fun (m : Module_spec.t) -> m.name) extra in
    ( List.filter_map
        (fun i ->
          let name = i.Design.spec.Module_spec.name in
          if List.mem name extra_names then Some name else None)
        (Design.instances d)
      |> List.sort_uniq String.compare,
      s )
  | Engine.Infeasible { reason } -> Alcotest.fail ("infeasible: " ^ reason)

let test_retype_tie_keeps_library_order () =
  (* Two ALUs of equal area: the Add and Sub chains of two_chains merge
     through a retype to the cheaper of them. *)
  let alu name =
    Module_spec.make_exn ~name ~ops:[ Op.Add; Op.Sub ] ~area:97. ~latency:1
      ~power:2.5
  in
  let pick order =
    let picked, s =
      tie_pick ~extra:(List.map alu order) ~t:20 ~p:100. (H.two_chains ())
    in
    Alcotest.(check bool) "a retype merge" true (s.Engine.retype_merges > 0);
    picked
  in
  Alcotest.(check (list string)) "first listed" [ "alu_a" ]
    (pick [ "alu_a"; "alu_b" ]);
  Alcotest.(check (list string)) "swapped" [ "alu_b" ] (pick [ "alu_b"; "alu_a" ])

let test_upgrade_tie_keeps_library_order () =
  (* Two serial multiplications take 10 cycles, so T = 8 forces one of them
     onto one of two equally fast parallel multipliers. *)
  let g =
    let b = Pchls_dfg.Builder.create "mult_chain" in
    let x = Pchls_dfg.Builder.input b "x" in
    let m1 = Pchls_dfg.Builder.mult b "m1" x x in
    let m2 = Pchls_dfg.Builder.mult b "m2" m1 x in
    ignore (Pchls_dfg.Builder.output b "y" m2);
    Pchls_dfg.Builder.finish_exn b
  in
  let fast name =
    Module_spec.make_exn ~name ~ops:[ Op.Mult ] ~area:339. ~latency:2
      ~power:8.1
  in
  let pick order =
    let picked, s = tie_pick ~extra:(List.map fast order) ~t:8 ~p:100. g in
    Alcotest.(check bool) "a default upgrade" true
      (s.Engine.default_upgrades > 0);
    picked
  in
  Alcotest.(check (list string)) "first listed" [ "par_a" ]
    (pick [ "par_a"; "par_b" ]);
  Alcotest.(check (list string)) "swapped" [ "par_b" ] (pick [ "par_b"; "par_a" ])

(* --- anytime synthesis under a budget ----------------------------------- *)

module Budget = Pchls_resil.Budget

let design_signature d =
  Printf.sprintf "area=%h makespan=%d instances=%s"
    (Design.area d).Design.total (Design.makespan d)
    (String.concat ";"
       (List.map
          (fun (i : Design.instance) ->
            Printf.sprintf "%d:%s:%s" i.Design.id
              i.Design.spec.Module_spec.name
              (String.concat ","
                 (List.map
                    (fun (op, t) -> Printf.sprintf "%d@%d" op t)
                    i.Design.ops)))
          (Design.instances d)))

let test_unbounded_budget_byte_identical () =
  (* The anytime property: threading a budget that never expires must not
     perturb a single decision. *)
  let run deadline =
    match
      Engine.run ?deadline ~library:lib ~time_limit:17 ~power_limit:10. B.hal
    with
    | Engine.Synthesized (d, s) -> (design_signature d, s.Engine.completion)
    | Engine.Infeasible { reason } -> Alcotest.fail reason
  in
  let plain, completion = run None in
  Alcotest.(check bool) "complete" true (completion = Engine.Complete);
  let budgeted, completion =
    run (Some (Budget.make ~deadline_ms:1e9 ~max_iters:max_int ()))
  in
  Alcotest.(check bool) "complete under budget" true
    (completion = Engine.Complete);
  Alcotest.(check string) "identical design" plain budgeted

let test_exhausted_iterations_force_partial_design () =
  (* max_iters = 0 refuses the very first engine iteration, so every
     operation is force-completed on its default module — the worst-case
     partial result, which must still be a valid design. *)
  let b = Budget.make ~max_iters:0 () in
  match
    Engine.run ~deadline:b ~library:lib ~time_limit:17 ~power_limit:100. B.hal
  with
  | Engine.Infeasible { reason } -> Alcotest.fail reason
  | Engine.Synthesized (d, s) ->
    check_design B.hal d ~t:17 ~p:100.;
    (match s.Engine.completion with
    | Engine.Deadline_exceeded { reason = Budget.Iterations; forced } ->
      Alcotest.(check int)
        "every operation forced" (Graph.node_count B.hal) forced
    | Engine.Deadline_exceeded { reason; _ } ->
      Alcotest.failf "wrong reason: %s" (Budget.reason_to_string reason)
    | Engine.Complete -> Alcotest.fail "expected a partial completion");
    (* A partial design shares nothing, so a full run is never larger. *)
    let full, _ = synth ~t:17 ~p:100. B.hal in
    Alcotest.(check bool) "full run no larger" true
      ((Design.area full).Design.total <= (Design.area d).Design.total)

let test_partial_quality_monotone_in_iterations () =
  let area_at iters =
    let b = Budget.make ~max_iters:iters () in
    match
      Engine.run ~deadline:b ~library:lib ~time_limit:17 ~power_limit:100.
        B.hal
    with
    | Engine.Synthesized (d, _) -> (Design.area d).Design.total
    | Engine.Infeasible { reason } -> Alcotest.fail reason
  in
  (* More budget never hurts on this instance: each committed decision is
     a sharing opportunity the forced tail would have missed. *)
  let a0 = area_at 0 and a3 = area_at 3 and a_full = area_at 10_000 in
  Alcotest.(check bool) "3 iters <= 0 iters" true (a3 <= a0);
  Alcotest.(check bool) "full <= 3 iters" true (a_full <= a3)

let test_expired_wall_clock_never_raises () =
  (* Expiry before the schedulers have produced anything feasible reports
     a deadline-flavoured infeasibility instead of raising. *)
  let contains ~needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i =
      i + n <= m && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  let b = Budget.make ~deadline_ms:0. () in
  match
    Engine.run ~deadline:b ~library:lib ~time_limit:17 ~power_limit:10. B.hal
  with
  | Engine.Synthesized (_, s) ->
    Alcotest.(check bool) "partial" true (s.Engine.completion <> Engine.Complete)
  | Engine.Infeasible { reason } ->
    Alcotest.(check bool) "reason mentions the deadline" true
      (contains ~needle:"deadline exceeded" reason)

(* --- schedulers after the lock ----------------------------------------- *)

let pasap_runs = Metrics.counter "pasap.runs"

(* hal at its pinned backtracking point, and a generated graph that also
   backtracks once. *)
let backtracking_cases () =
  let g = Generator.sized ~seed:2 ~max_nodes:40 () in
  let info = H.table1_info () g in
  let cp =
    Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
  in
  [ ("hal", B.hal, 17, 10.); ("sized-40", g, 2 * cp, 10.) ]

(* One synthesis under an unbounded recorder: its design, stats, events
   and the pasap calls it made (palap's included, as palap runs pasap on
   the reversed graph). *)
let traced_synth ~self_check (_, g, t, p) =
  let r = Trace.make () in
  let before = Metrics.counter_value pasap_runs in
  match
    Trace.with_sink r (fun () ->
        Engine.run ~self_check ~library:lib ~time_limit:t ~power_limit:p g)
  with
  | Engine.Synthesized (d, s) ->
    (d, s, Trace.events r, Metrics.counter_value pasap_runs - before)
  | Engine.Infeasible { reason } -> Alcotest.fail reason

let backtrack_ts events =
  match List.filter (fun e -> e.Trace.name = "engine.backtrack") events with
  | [ e ] -> e.Trace.ts_ns
  | es -> Alcotest.failf "%d engine.backtrack instants" (List.length es)

let started ~after name events =
  List.filter
    (fun e -> e.Trace.name = name && Int64.compare e.Trace.ts_ns after > 0)
    events

let test_schedulers_off_after_lock () =
  List.iter
    (fun ((label, _, _, _) as case) ->
      let _, stats, events, runs = traced_synth ~self_check:false case in
      Alcotest.(check int)
        (label ^ ": one backtrack")
        1 stats.Engine.backtracks;
      let lock = backtrack_ts events in
      (* k: the iteration that backtracked, counting it. *)
      let k =
        List.length
          (List.filter
             (fun e ->
               e.Trace.name = "engine.iterate"
               && Int64.compare e.Trace.ts_ns lock < 0)
             events)
      in
      Alcotest.(check bool)
        (label ^ ": iterations after the lock")
        true
        (started ~after:lock "engine.iterate" events <> []);
      List.iter
        (fun name ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s spans after the lock" label name)
            0
            (List.length (started ~after:lock name events)))
        [ "pasap.run"; "palap.run" ];
      (* Settling the defaults runs pasap once per attempt; each iteration
         up to the backtrack runs palap and one post-commit pasap. *)
      Alcotest.(check int) (label ^ ": pasap calls")
        (1 + stats.Engine.default_upgrades + (2 * k))
        runs)
    (backtracking_cases ())

let test_self_check_runs_schedulers_after_lock () =
  List.iter
    (fun ((label, _, _, _) as case) ->
      let plain, _, _, _ = traced_synth ~self_check:false case in
      let checked, stats, events, _ = traced_synth ~self_check:true case in
      Alcotest.(check int)
        (label ^ ": one backtrack")
        1 stats.Engine.backtracks;
      let lock = backtrack_ts events in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s spans after the lock" label name)
            true
            (started ~after:lock name events <> []))
        [ "pasap.run"; "palap.run" ];
      Alcotest.(check string) (label ^ ": same design") (design_signature plain)
        (design_signature checked))
    (backtracking_cases ())

(* --- Pinned designs on sized graphs ------------------------------------ *)

(* [g] renumbered: a seeded shuffle of its nodes takes ascending ids with
   random gaps, so every index lookup goes through [Graph.index]'s binary
   search. *)
let sparse g =
  let rng = Random.State.make [| 7; Graph.node_count g |] in
  let ids = Array.of_list (Graph.node_ids g) in
  let n = Array.length ids in
  for k = n - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let x = ids.(k) in
    ids.(k) <- ids.(j);
    ids.(j) <- x
  done;
  let fresh = Hashtbl.create n in
  let next = ref (Random.State.int rng 1000) in
  Array.iter
    (fun id ->
      Hashtbl.replace fresh id !next;
      next := !next + 1 + Random.State.int rng 40)
    ids;
  let tr = Hashtbl.find fresh in
  Graph.create_exn ~name:(Graph.name g)
    ~nodes:
      (List.map
         (fun (v : Graph.node) -> { v with Graph.id = tr v.Graph.id })
         (Graph.nodes g))
    ~edges:(List.map (fun (a, b) -> (tr a, tr b)) (Graph.edges g))

(* One run's case and its answer: the stats line and the first 12 hex
   digits of the MD5 of [Design.pp]'s text, or of the infeasibility
   reason. *)
let pinned_run ~seed ~max_nodes ~ids ~t_tag ~p ~policy =
  let g = Generator.sized ~seed ~max_nodes () in
  let g = if ids = "sparse" then sparse g else g in
  let cp =
    Graph.critical_path g ~latency:(fun id ->
        (H.table1_info () g id).Schedule.latency)
  in
  let t =
    match t_tag with "cp" -> cp | "1.5cp" -> cp * 3 / 2 | _ -> 2 * cp
  in
  let case =
    Printf.sprintf "seed=%d n=%d %s T=%s(%d) P<=%g %s" seed max_nodes ids
      t_tag t p
      (Engine.policy_to_string policy)
  in
  let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12 in
  ( case,
    match Engine.run ~policy ~library:lib ~time_limit:t ~power_limit:p g with
    | Engine.Synthesized (d, stats) ->
      Format.asprintf "%a %s" Engine.pp_stats stats
        (digest (Format.asprintf "%a" Design.pp d))
    | Engine.Infeasible { reason } -> "infeasible " ^ digest reason )

(* The answers of the engine that passed its schedulers an [info] closure
   and a lock list, so that passing arrays over the graph's index is shown
   to change no design. In the order [test_pinned_sized_designs] runs the
   cases: 3 graphs x dense and sparse ids x 3 T x 3 P< x 2 policies; 44
   runs are infeasible and 22 backtrack. *)
let pinned_answers =
  [
    (* seed=5 n=24 *)
    "infeasible 1f07161b799f";
    "infeasible 1f07161b799f";
    "decisions=14 merges=9 retypes=1 new=4 backtracks=0 upgrades=0 08d67e4903ce";
    "decisions=14 merges=9 retypes=1 new=4 backtracks=0 upgrades=0 08d67e4903ce";
    "decisions=14 merges=9 retypes=1 new=4 backtracks=0 upgrades=0 1ea8a67988e8";
    "decisions=14 merges=9 retypes=1 new=4 backtracks=0 upgrades=0 1ea8a67988e8";
    "decisions=14 merges=8 retypes=0 new=6 backtracks=1 upgrades=0 7e80700a2c81";
    "decisions=14 merges=8 retypes=0 new=6 backtracks=1 upgrades=0 7e80700a2c81";
    "decisions=14 merges=10 retypes=1 new=3 backtracks=0 upgrades=0 b671e9d56f5c";
    "decisions=14 merges=10 retypes=1 new=3 backtracks=0 upgrades=0 b671e9d56f5c";
    "decisions=14 merges=10 retypes=1 new=3 backtracks=0 upgrades=0 d52e46ddd926";
    "decisions=14 merges=10 retypes=1 new=3 backtracks=0 upgrades=0 d52e46ddd926";
    "decisions=14 merges=8 retypes=0 new=6 backtracks=1 upgrades=0 7fadaf21ebfd";
    "decisions=14 merges=8 retypes=0 new=6 backtracks=1 upgrades=0 7fadaf21ebfd";
    "decisions=14 merges=11 retypes=1 new=2 backtracks=0 upgrades=0 bfaaa1602027";
    "decisions=14 merges=11 retypes=1 new=2 backtracks=0 upgrades=0 bfaaa1602027";
    "decisions=14 merges=11 retypes=1 new=2 backtracks=0 upgrades=0 541be62d85f8";
    "decisions=14 merges=11 retypes=1 new=2 backtracks=0 upgrades=0 541be62d85f8";
    "infeasible c3fbc68648e3";
    "infeasible c3fbc68648e3";
    "decisions=14 merges=9 retypes=1 new=4 backtracks=0 upgrades=0 7b043b188d86";
    "decisions=14 merges=9 retypes=1 new=4 backtracks=0 upgrades=0 7b043b188d86";
    "decisions=14 merges=9 retypes=1 new=4 backtracks=0 upgrades=0 a1cad96bf141";
    "decisions=14 merges=9 retypes=1 new=4 backtracks=0 upgrades=0 a1cad96bf141";
    "decisions=14 merges=7 retypes=0 new=7 backtracks=1 upgrades=0 a622996b0398";
    "decisions=14 merges=7 retypes=0 new=7 backtracks=1 upgrades=0 a622996b0398";
    "decisions=14 merges=10 retypes=1 new=3 backtracks=0 upgrades=0 f8fa96d937b1";
    "decisions=14 merges=10 retypes=1 new=3 backtracks=0 upgrades=0 f8fa96d937b1";
    "decisions=14 merges=10 retypes=1 new=3 backtracks=0 upgrades=0 51432d4e0635";
    "decisions=14 merges=10 retypes=1 new=3 backtracks=0 upgrades=0 51432d4e0635";
    "decisions=14 merges=8 retypes=1 new=5 backtracks=1 upgrades=0 2e7015a9f65a";
    "decisions=14 merges=8 retypes=1 new=5 backtracks=1 upgrades=0 2e7015a9f65a";
    "decisions=14 merges=11 retypes=1 new=2 backtracks=0 upgrades=0 5a1ea1c52700";
    "decisions=14 merges=11 retypes=1 new=2 backtracks=0 upgrades=0 5a1ea1c52700";
    "decisions=14 merges=11 retypes=1 new=2 backtracks=0 upgrades=0 82e6ba442998";
    "decisions=14 merges=11 retypes=1 new=2 backtracks=0 upgrades=0 82e6ba442998";
    (* seed=7 n=40 *)
    "infeasible cf9ff8a6d017";
    "infeasible cf9ff8a6d017";
    "infeasible a2cf5663ef0f";
    "infeasible a2cf5663ef0f";
    "decisions=36 merges=23 retypes=3 new=10 backtracks=0 upgrades=0 abc5c6b4f463";
    "decisions=36 merges=23 retypes=3 new=10 backtracks=0 upgrades=0 abc5c6b4f463";
    "infeasible e29c225ff9aa";
    "infeasible e29c225ff9aa";
    "decisions=36 merges=25 retypes=1 new=10 backtracks=1 upgrades=0 1c06bb475f0d";
    "decisions=36 merges=25 retypes=1 new=10 backtracks=1 upgrades=0 1c06bb475f0d";
    "decisions=36 merges=27 retypes=2 new=7 backtracks=0 upgrades=0 f31acbab786b";
    "decisions=36 merges=27 retypes=2 new=7 backtracks=0 upgrades=0 f31acbab786b";
    "infeasible bc5796e3c3e8";
    "infeasible bc5796e3c3e8";
    "decisions=36 merges=26 retypes=1 new=9 backtracks=1 upgrades=0 10022982b2e5";
    "decisions=36 merges=26 retypes=1 new=9 backtracks=1 upgrades=0 10022982b2e5";
    "decisions=36 merges=29 retypes=2 new=5 backtracks=0 upgrades=0 c7746e2b0506";
    "decisions=36 merges=29 retypes=2 new=5 backtracks=0 upgrades=0 c7746e2b0506";
    "infeasible 843ed30d30e0";
    "infeasible 843ed30d30e0";
    "infeasible d3e156103c82";
    "infeasible d3e156103c82";
    "decisions=36 merges=22 retypes=3 new=11 backtracks=0 upgrades=0 3c07575a7bbc";
    "decisions=36 merges=22 retypes=3 new=11 backtracks=0 upgrades=0 3c07575a7bbc";
    "infeasible 3e759c1d327d";
    "infeasible 3e759c1d327d";
    "decisions=36 merges=25 retypes=0 new=11 backtracks=1 upgrades=0 53b1c22e4c0c";
    "decisions=36 merges=25 retypes=0 new=11 backtracks=1 upgrades=0 53b1c22e4c0c";
    "decisions=36 merges=27 retypes=2 new=7 backtracks=0 upgrades=0 ca66f4ce9e2a";
    "decisions=36 merges=27 retypes=2 new=7 backtracks=0 upgrades=0 ca66f4ce9e2a";
    "infeasible 644b865785fa";
    "infeasible 644b865785fa";
    "decisions=36 merges=25 retypes=0 new=11 backtracks=1 upgrades=0 9949b04d6d1a";
    "decisions=36 merges=25 retypes=0 new=11 backtracks=1 upgrades=0 9949b04d6d1a";
    "decisions=36 merges=29 retypes=2 new=5 backtracks=0 upgrades=0 3a67ab66f3f6";
    "decisions=36 merges=29 retypes=2 new=5 backtracks=0 upgrades=0 3a67ab66f3f6";
    (* seed=3 n=90 *)
    "infeasible 8af6c3bf2f47";
    "infeasible 8af6c3bf2f47";
    "infeasible 383bec699f4b";
    "infeasible 383bec699f4b";
    "decisions=88 merges=67 retypes=2 new=19 backtracks=1 upgrades=0 7984ce05e9f0";
    "decisions=88 merges=67 retypes=2 new=19 backtracks=1 upgrades=0 7984ce05e9f0";
    "infeasible 18e82371b346";
    "infeasible 18e82371b346";
    "infeasible 91ef97dc2c69";
    "infeasible 91ef97dc2c69";
    "decisions=88 merges=71 retypes=3 new=14 backtracks=0 upgrades=0 dfab6c7b482e";
    "decisions=88 merges=71 retypes=3 new=14 backtracks=0 upgrades=0 dfab6c7b482e";
    "infeasible 51e15d85ecf2";
    "infeasible 51e15d85ecf2";
    "infeasible 75c70b70baab";
    "infeasible 75c70b70baab";
    "decisions=88 merges=76 retypes=2 new=10 backtracks=0 upgrades=0 ca5deb6829bb";
    "decisions=88 merges=76 retypes=2 new=10 backtracks=0 upgrades=0 ca5deb6829bb";
    "infeasible eff2dfabad8c";
    "infeasible eff2dfabad8c";
    "infeasible f3877cb9ac20";
    "infeasible f3877cb9ac20";
    "decisions=88 merges=63 retypes=0 new=25 backtracks=1 upgrades=0 d6a80bc416d8";
    "decisions=88 merges=63 retypes=0 new=25 backtracks=1 upgrades=0 d6a80bc416d8";
    "infeasible 5b5e13fce8e8";
    "infeasible 5b5e13fce8e8";
    "infeasible 1df6fc88af6c";
    "infeasible 1df6fc88af6c";
    "decisions=88 merges=62 retypes=2 new=24 backtracks=1 upgrades=0 3e22cb47d02f";
    "decisions=88 merges=62 retypes=2 new=24 backtracks=1 upgrades=0 3e22cb47d02f";
    "infeasible 4840a4791420";
    "infeasible 4840a4791420";
    "infeasible 5ab4c40829f1";
    "infeasible 5ab4c40829f1";
    "decisions=88 merges=76 retypes=2 new=10 backtracks=0 upgrades=0 e2fd18e2e566";
    "decisions=88 merges=76 retypes=2 new=10 backtracks=0 upgrades=0 e2fd18e2e566";
  ]

let test_pinned_sized_designs () =
  let cases =
    List.concat_map
      (fun (seed, max_nodes) ->
        List.concat_map
          (fun ids ->
            List.concat_map
              (fun t_tag ->
                List.concat_map
                  (fun p ->
                    List.map
                      (fun policy -> (seed, max_nodes, ids, t_tag, p, policy))
                      [ Engine.Min_power; Engine.Min_area ])
                  [ 6.; 12.; 40. ])
              [ "cp"; "1.5cp"; "2cp" ])
          [ "dense"; "sparse" ])
      [ (5, 24); (7, 40); (3, 90) ]
  in
  Alcotest.(check int) "one answer per case" (List.length cases)
    (List.length pinned_answers);
  List.iter2
    (fun (seed, max_nodes, ids, t_tag, p, policy) expected ->
      let case, answer = pinned_run ~seed ~max_nodes ~ids ~t_tag ~p ~policy in
      Alcotest.(check string) case expected answer)
    cases pinned_answers

let () =
  Alcotest.run "engine"
    [
      ( "basics",
        [
          Alcotest.test_case "minimal chain" `Quick test_chain_minimal;
          Alcotest.test_case "adds share one adder" `Quick test_sharing_two_adds;
          Alcotest.test_case "tight T forces more adders" `Quick
            test_tight_time_forces_more_adders;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "stats consistent" `Quick test_stats_consistency;
          Alcotest.test_case "retype merge builds an ALU" `Quick
            test_retype_builds_alu;
          Alcotest.test_case "instance caps respected" `Quick
            test_instance_caps_respected;
          Alcotest.test_case "instance caps can be infeasible" `Quick
            test_instance_caps_can_be_infeasible;
          Alcotest.test_case "instance caps validated" `Quick
            test_instance_caps_validation;
          Alcotest.test_case "retype tie keeps library order" `Quick
            test_retype_tie_keeps_library_order;
          Alcotest.test_case "upgrade tie keeps library order" `Quick
            test_upgrade_tie_keeps_library_order;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "hal T=10 needs mult_par" `Quick
            test_hal_t10_needs_parallel_mult;
          Alcotest.test_case "hal T=17 stays serial" `Quick
            test_hal_t17_serial_only;
          Alcotest.test_case "power constraint enforced" `Quick
            test_power_constraint_enforced;
          Alcotest.test_case "impossible T infeasible" `Quick test_infeasible_time;
          Alcotest.test_case "impossible P infeasible" `Quick
            test_infeasible_power;
          Alcotest.test_case "invalid arguments rejected" `Quick
            test_invalid_arguments;
        ] );
      ( "quality",
        [
          Alcotest.test_case "all benchmarks, unconstrained" `Quick
            test_all_benchmarks_unconstrained;
          Alcotest.test_case "paper operating points" `Quick
            test_paper_operating_points;
          Alcotest.test_case "area monotone-ish in T" `Quick
            test_area_decreases_with_time_budget;
          Alcotest.test_case "all policies give valid designs" `Quick
            test_policies_differ_or_agree_but_valid;
          Alcotest.test_case "cost model changes area" `Quick
            test_cost_model_changes_area;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "pinned sized designs" `Quick
            test_pinned_sized_designs;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unbounded budget byte-identical" `Quick
            test_unbounded_budget_byte_identical;
          Alcotest.test_case "forced partial design valid" `Quick
            test_exhausted_iterations_force_partial_design;
          Alcotest.test_case "quality monotone in iterations" `Quick
            test_partial_quality_monotone_in_iterations;
          Alcotest.test_case "expired budget never raises" `Quick
            test_expired_wall_clock_never_raises;
        ] );
      ( "lock",
        [
          Alcotest.test_case "schedulers stay off after the lock" `Quick
            test_schedulers_off_after_lock;
          Alcotest.test_case "self-check runs both after the lock" `Quick
            test_self_check_runs_schedulers_after_lock;
        ] );
    ]
