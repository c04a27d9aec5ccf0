module Schedule = Pchls_sched.Schedule
module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Profile = Pchls_power.Profile

let info1 _ = { Schedule.latency = 1; power = 2. }

let chain () =
  (* 0 -> 1 -> 2 *)
  Graph.create_exn ~name:"chain"
    ~nodes:
      [
        { Graph.id = 0; name = "i"; kind = Op.Input };
        { Graph.id = 1; name = "a"; kind = Op.Add };
        { Graph.id = 2; name = "o"; kind = Op.Output };
      ]
    ~edges:[ (0, 1); (1, 2) ]

let test_empty () =
  Alcotest.(check int) "cardinal" 0 (Schedule.cardinal Schedule.empty);
  Alcotest.(check int) "makespan" 0 (Schedule.makespan Schedule.empty ~info:info1)

let test_set_find () =
  let s = Schedule.set Schedule.empty 3 7 in
  Alcotest.(check (option int)) "found" (Some 7) (Schedule.find s 3);
  Alcotest.(check (option int)) "absent" None (Schedule.find s 4);
  Alcotest.(check bool) "mem" true (Schedule.mem s 3);
  Alcotest.(check int) "start" 7 (Schedule.start s 3);
  Alcotest.check_raises "start raises" Not_found (fun () ->
      ignore (Schedule.start s 4))

let test_set_overrides () =
  let s = Schedule.set (Schedule.set Schedule.empty 1 5) 1 9 in
  Alcotest.(check (option int)) "latest wins" (Some 9) (Schedule.find s 1);
  Alcotest.(check int) "still one entry" 1 (Schedule.cardinal s)

let test_of_alist_bindings () =
  let s = Schedule.of_alist [ (2, 4); (0, 0); (1, 2) ] in
  Alcotest.(check (list (pair int int)))
    "sorted bindings"
    [ (0, 0); (1, 2); (2, 4) ]
    (Schedule.bindings s)

let test_finish_makespan () =
  let info id = { Schedule.latency = (if id = 1 then 4 else 1); power = 1. } in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 5) ] in
  Alcotest.(check int) "finish of 1" 5 (Schedule.finish s ~info 1);
  Alcotest.(check int) "makespan" 6 (Schedule.makespan s ~info)

let test_profile () =
  let info id =
    { Schedule.latency = (if id = 1 then 2 else 1); power = float_of_int (id + 1) }
  in
  let s = Schedule.of_alist [ (0, 0); (1, 0); (2, 2) ] in
  let p = Schedule.profile s ~info ~horizon:4 in
  Alcotest.(check (float 1e-9)) "cycle0 = 1 + 2" 3. (Profile.get p 0);
  Alcotest.(check (float 1e-9)) "cycle1 = 2" 2. (Profile.get p 1);
  Alcotest.(check (float 1e-9)) "cycle2 = 3" 3. (Profile.get p 2);
  Alcotest.(check (float 1e-9)) "cycle3 idle" 0. (Profile.get p 3)

let test_validate_ok () =
  let g = chain () in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 2) ] in
  match Schedule.validate g s ~info:info1 ~time_limit:3 ~power_limit:2. () with
  | Ok () -> ()
  | Error ds ->
    Alcotest.fail
      (String.concat "; " (List.map Pchls_diag.Diag.to_string ds))

let has_code code = function
  | Ok () -> false
  | Error ds -> List.exists (fun d -> d.Pchls_diag.Diag.code = code) ds

let test_validate_unscheduled () =
  let g = chain () in
  let s = Schedule.of_alist [ (0, 0); (2, 2) ] in
  let r = Schedule.validate g s ~info:info1 () in
  Alcotest.(check bool) "unscheduled 1 -> SCH001" true (has_code "SCH001" r)

let test_validate_precedence () =
  let g = chain () in
  let s = Schedule.of_alist [ (0, 0); (1, 0); (2, 2) ] in
  let r = Schedule.validate g s ~info:info1 () in
  Alcotest.(check bool) "precedence 0->1 -> SCH003" true (has_code "SCH003" r)

let test_validate_latency () =
  let g = chain () in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 2) ] in
  let r = Schedule.validate g s ~info:info1 ~time_limit:2 () in
  Alcotest.(check bool) "latency exceeded -> SCH004" true (has_code "SCH004" r)

let test_validate_power () =
  let g = chain () in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 2) ] in
  let r = Schedule.validate g s ~info:info1 ~power_limit:1.5 () in
  Alcotest.(check bool) "power exceeded -> SCH005" true (has_code "SCH005" r)

let test_validate_negative_start () =
  let g = chain () in
  let s = Schedule.of_alist [ (0, -1); (1, 1); (2, 2) ] in
  let r = Schedule.validate g s ~info:info1 () in
  Alcotest.(check bool) "negative start -> SCH002" true (has_code "SCH002" r)

let test_validate_bad_latency () =
  let g = chain () in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 2) ] in
  let info _ = { Schedule.latency = 0; power = 1. } in
  let r = Schedule.validate g s ~info ~power_limit:0.5 () in
  Alcotest.(check bool) "zero latency -> SCH006" true (has_code "SCH006" r);
  Alcotest.(check bool) "power check suppressed" false (has_code "SCH005" r)

let test_lint_stray_entry () =
  let g = chain () in
  let s = Schedule.of_alist [ (0, 0); (1, 1); (2, 2); (9, 0) ] in
  let ds = Schedule.lint g s ~info:info1 () in
  Alcotest.(check bool) "stray node -> SCH007 warning" true
    (List.exists (fun d -> d.Pchls_diag.Diag.code = "SCH007") ds);
  (* A stray entry is a warning, so validate still accepts. *)
  (match Schedule.validate g s ~info:info1 () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "warnings must not fail validate")

let () =
  Alcotest.run "schedule"
    [
      ( "container",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "set and find" `Quick test_set_find;
          Alcotest.test_case "set overrides" `Quick test_set_overrides;
          Alcotest.test_case "of_alist and bindings" `Quick
            test_of_alist_bindings;
          Alcotest.test_case "finish and makespan" `Quick test_finish_makespan;
          Alcotest.test_case "profile accumulation" `Quick test_profile;
        ] );
      ( "validation",
        [
          Alcotest.test_case "valid schedule accepted" `Quick test_validate_ok;
          Alcotest.test_case "unscheduled node flagged" `Quick
            test_validate_unscheduled;
          Alcotest.test_case "precedence violation flagged" `Quick
            test_validate_precedence;
          Alcotest.test_case "latency violation flagged" `Quick
            test_validate_latency;
          Alcotest.test_case "power violation flagged" `Quick test_validate_power;
          Alcotest.test_case "negative start flagged" `Quick
            test_validate_negative_start;
          Alcotest.test_case "non-positive latency flagged" `Quick
            test_validate_bad_latency;
          Alcotest.test_case "stray entry warned" `Quick test_lint_stray_entry;
        ] );
    ]
