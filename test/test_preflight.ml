module Preflight = Pchls_preflight.Preflight
module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module B = Pchls_dfg.Benchmarks
module Generator = Pchls_dfg.Generator
module Library = Pchls_fulib.Library
module Design = Pchls_core.Design
module Engine = Pchls_core.Engine
module Profile = Pchls_power.Profile

let lib = Library.default

let analyze ?exact_max_vertices ~time_limit ?power_limit g =
  Preflight.analyze ?exact_max_vertices ~library:lib ~time_limit ?power_limit g

let verify ~time_limit ?power_limit g c =
  Preflight.verify ~library:lib ~time_limit ?power_limit g c

let check_verifies ~time_limit ?power_limit g r =
  List.iter
    (fun c ->
      match verify ~time_limit ?power_limit g c with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "certificate %s did not verify: %s"
          (Preflight.certificate_code c) e)
    r.Preflight.certificates

(* i -> m -> m -> o : one chain whose min-latency length is easy to count. *)
let chain =
  Graph.create_exn ~name:"chain"
    ~nodes:
      [
        { Graph.id = 0; name = "i"; kind = Op.Input };
        { Graph.id = 1; name = "m1"; kind = Op.Mult };
        { Graph.id = 2; name = "m2"; kind = Op.Mult };
        { Graph.id = 3; name = "o"; kind = Op.Output };
      ]
    ~edges:[ (0, 1); (1, 2); (2, 3) ]

(* two independent multiplications, nothing else *)
let twin_mults =
  Graph.create_exn ~name:"twin_mults"
    ~nodes:
      [
        { Graph.id = 0; name = "m1"; kind = Op.Mult };
        { Graph.id = 1; name = "m2"; kind = Op.Mult };
      ]
    ~edges:[]

let test_feasible_no_certificates () =
  let r = analyze ~time_limit:20 ~power_limit:100. B.hal in
  Alcotest.(check bool) "no certificates" false (Preflight.infeasible r);
  match r.Preflight.bounds with
  | None -> Alcotest.fail "bounds expected"
  | Some b ->
    Alcotest.(check bool) "latency lb positive" true (b.Preflight.latency_lb > 0);
    Alcotest.(check bool)
      "windows well-formed" true
      (List.for_all
         (fun (_, w) -> w.Preflight.earliest <= w.Preflight.latest)
         b.Preflight.windows);
    Alcotest.(check bool) "area lb <= ub" true
      (b.Preflight.fu_area_lb <= b.Preflight.fu_area_ub)

let test_latency_certificate () =
  (* chain needs >= 1 + 2 + 2 + 1 = 6 cycles even with mult_par *)
  let r = analyze ~time_limit:5 ~power_limit:100. chain in
  (match Preflight.first_certificate r with
  | Some (Preflight.Latency_exceeded { lower_bound; path; _ }) ->
    Alcotest.(check int) "lower bound" 6 lower_bound;
    Alcotest.(check (list int)) "witness path" [ 0; 1; 2; 3 ] path
  | _ -> Alcotest.fail "expected a latency certificate");
  check_verifies ~time_limit:5 ~power_limit:100. chain r

let test_no_admissible_module () =
  (* P< 2.0 rules every adder (2.5) and multiplier (2.7 / 8.1) out *)
  let r = analyze ~time_limit:50 ~power_limit:2.0 B.hal in
  Alcotest.(check bool) "infeasible" true (Preflight.infeasible r);
  Alcotest.(check bool) "no bounds" true (r.Preflight.bounds = None);
  let kinds =
    List.filter_map
      (function
        | Preflight.No_admissible_module { kind; _ } -> Some kind
        | _ -> None)
      r.Preflight.certificates
  in
  Alcotest.(check bool) "mult blocked" true (List.mem Op.Mult kinds);
  Alcotest.(check bool) "add blocked" true (List.mem Op.Add kinds);
  check_verifies ~time_limit:50 ~power_limit:2.0 B.hal r

let test_cycle_overload () =
  (* under P< 5 only mult_ser (latency 4) is admissible; at T=4 both
     multiplications are pinned to cycles 0-3 and together draw 5.4 > 5 *)
  let r = analyze ~time_limit:4 ~power_limit:5. twin_mults in
  (match
     List.find_opt
       (function Preflight.Cycle_overload _ -> true | _ -> false)
       r.Preflight.certificates
   with
  | Some (Preflight.Cycle_overload { demand; pinned; _ }) ->
    Alcotest.(check int) "cut size" 2 (List.length pinned);
    Alcotest.(check bool) "demand over limit" true (demand > 5.)
  | _ -> Alcotest.fail "expected a cycle-overload certificate");
  check_verifies ~time_limit:4 ~power_limit:5. twin_mults r

let test_energy_certificate () =
  (* hal under P< 2.8 (mult_ser only): total minimum energy 85.3 exceeds
     T * P< = 84.0 at T=30, long before any cycle-level argument *)
  let r = analyze ~time_limit:30 ~power_limit:2.8 B.hal in
  (match
     List.find_opt
       (function Preflight.Energy_deficit _ -> true | _ -> false)
       r.Preflight.certificates
   with
  | Some (Preflight.Energy_deficit { energy_lb; capacity }) ->
    Alcotest.(check bool) "deficit" true (energy_lb > capacity)
  | _ -> Alcotest.fail "expected an energy certificate");
  check_verifies ~time_limit:30 ~power_limit:2.8 B.hal r

let test_area_bounds_exact () =
  (* two adds with slack share one adder: exact lb = cheapest add module *)
  let g =
    Graph.create_exn ~name:"two_adds"
      ~nodes:
        [
          { Graph.id = 0; name = "a1"; kind = Op.Add };
          { Graph.id = 1; name = "a2"; kind = Op.Add };
        ]
      ~edges:[]
  in
  let r = analyze ~time_limit:10 ~power_limit:100. g in
  match r.Preflight.bounds with
  | None -> Alcotest.fail "bounds expected"
  | Some b ->
    Alcotest.(check bool) "exact" true b.Preflight.fu_area_exact;
    Alcotest.(check (float 1e-9)) "shared adder" 87. b.Preflight.fu_area_lb;
    Alcotest.(check (float 1e-9)) "two ALUs at worst" 194.
      b.Preflight.fu_area_ub

let test_relaxed_vs_exact () =
  (* the relaxed bound must never exceed the exact optimum *)
  let check_graph g =
    let exact = analyze ~exact_max_vertices:30 ~time_limit:12 ~power_limit:20. g in
    let relaxed = analyze ~exact_max_vertices:0 ~time_limit:12 ~power_limit:20. g in
    match (exact.Preflight.bounds, relaxed.Preflight.bounds) with
    | Some e, Some x ->
      Alcotest.(check bool) "used exact" true e.Preflight.fu_area_exact;
      Alcotest.(check bool) "used relaxation" false x.Preflight.fu_area_exact;
      Alcotest.(check bool) "relaxed <= exact" true
        (x.Preflight.fu_area_lb <= e.Preflight.fu_area_lb +. 1e-9)
    | _ -> Alcotest.fail "bounds expected"
  in
  check_graph chain;
  check_graph twin_mults

let brackets ~time_limit ~power_limit g =
  let r = analyze ~time_limit ~power_limit g in
  match Engine.run ~library:lib ~time_limit ~power_limit g with
  | Engine.Infeasible _ -> ()
  | Engine.Synthesized (d, _) ->
    if Preflight.infeasible r then
      Alcotest.failf "false prune at T=%d P=%g on %s" time_limit power_limit
        (Graph.name g);
    (match r.Preflight.bounds with
    | None -> Alcotest.fail "feasible instance must have bounds"
    | Some b ->
      let fu = (Design.area d).Design.fu in
      Alcotest.(check bool) "latency lb" true
        (b.Preflight.latency_lb <= Design.makespan d);
      Alcotest.(check bool) "demand peak lb" true
        (b.Preflight.demand_peak <= Profile.peak (Design.profile d) +. 1e-9);
      Alcotest.(check bool) "energy lb" true
        (b.Preflight.energy_lb <= Design.energy d +. 1e-9);
      Alcotest.(check bool) "area lb" true (b.Preflight.fu_area_lb <= fu +. 1e-9);
      Alcotest.(check bool) "area ub" true (fu <= b.Preflight.fu_area_ub +. 1e-9))

let test_brackets_engine () =
  List.iter
    (fun (t, p) -> brackets ~time_limit:t ~power_limit:p B.hal)
    [ (8, 25.); (10, 20.); (17, 10.); (17, 7.5); (30, 100.) ];
  brackets ~time_limit:20 ~power_limit:15. B.iir_biquad;
  brackets ~time_limit:40 ~power_limit:12. B.matmul2;
  List.iter
    (fun seed ->
      let g = Generator.sized ~seed ~max_nodes:14 () in
      List.iter
        (fun (t, p) -> brackets ~time_limit:t ~power_limit:p g)
        [ (12, 9.); (25, 14.); (40, 30.) ])
    [ 1; 2; 3; 4; 5 ]

let test_tampered_certificates_rejected () =
  let reject c =
    match verify ~time_limit:4 ~power_limit:5. twin_mults c with
    | Ok () -> Alcotest.fail "tampered certificate accepted"
    | Error _ -> ()
  in
  (* inflated per-op power claim *)
  reject
    (Preflight.Cycle_overload
       { cycle = 0; demand = 12.; limit = 5.; pinned = [ (0, 6.); (1, 6.) ] });
  (* cycle outside any pinned interval *)
  reject
    (Preflight.Cycle_overload
       { cycle = 3; demand = 5.4; limit = 5.; pinned = [ (0, 2.7); (0, 2.7) ] });
  (* path that is not a chain *)
  reject
    (Preflight.Latency_exceeded { limit = 4; lower_bound = 8; path = [ 0; 1 ] });
  (* short path that does not prove anything *)
  reject
    (Preflight.Latency_exceeded { limit = 4; lower_bound = 4; path = [ 0 ] });
  (* admissible kind claimed inadmissible *)
  reject
    (Preflight.No_admissible_module
       { kind = Op.Mult; power_limit = 5.; min_power = Some 2.7 });
  (* energy fits comfortably at T=10 (capacity 50 > 21.6) *)
  match
    verify ~time_limit:10 ~power_limit:5. twin_mults
      (Preflight.Energy_deficit { energy_lb = 21.6; capacity = 50. })
  with
  | Ok () -> Alcotest.fail "tampered energy certificate accepted"
  | Error _ -> ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_render_and_json () =
  let r = analyze ~time_limit:4 ~power_limit:5. twin_mults in
  let text = Preflight.render r in
  Alcotest.(check bool) "mentions verdict" true (contains text "infeasible");
  let json = Pchls_obs.Json.to_string (Preflight.to_json r) in
  Alcotest.(check bool) "json has code" true
    (contains json "\"code\":\"PRE003\"");
  Alcotest.(check bool) "json infeasible flag" true
    (contains json "\"infeasible\":true");
  let diags = Preflight.to_diags r in
  Alcotest.(check bool) "one error diag" true
    (List.length diags >= 1 && Pchls_diag.Diag.has_errors diags)

(* Strings are JSON-escaped, not OCaml-escaped: a UTF-8 graph name
   survives a strict parse (OCaml's %S would emit "h\195\164l"). *)
let test_json_non_ascii_name () =
  let text = Pchls_dfg.Text_format.to_string B.hal in
  let body = String.sub text 9 (String.length text - 9) in
  Alcotest.(check string) "hal text starts with its name" "graph hal"
    (String.sub text 0 9);
  let g =
    match Pchls_dfg.Text_format.of_string ("graph h\xc3\xa4l" ^ body) with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  match
    Pchls_obs.Json.parse
      (Pchls_obs.Json.to_string (Preflight.to_json (analyze ~time_limit:5 g)))
  with
  | Ok json ->
    Alcotest.(check (option string)) "graph name round-trips"
      (Some "h\xc3\xa4l")
      (match Pchls_obs.Json.member "graph" json with
      | Some (Pchls_obs.Json.String s) -> Some s
      | _ -> None)
  | Error msg -> Alcotest.fail ("to_json is not JSON: " ^ msg)

let test_invalid_args () =
  Alcotest.check_raises "bad T" (Invalid_argument
    "Preflight.analyze: time_limit must be >= 1") (fun () ->
      ignore (analyze ~time_limit:0 B.hal));
  Alcotest.check_raises "bad P" (Invalid_argument
    "Preflight.analyze: power_limit must be positive") (fun () ->
      ignore (analyze ~time_limit:5 ~power_limit:0. B.hal))

let () =
  Alcotest.run "preflight"
    [
      ( "bounds",
        [
          Alcotest.test_case "feasible instance stays silent" `Quick
            test_feasible_no_certificates;
          Alcotest.test_case "area bounds exact on small graphs" `Quick
            test_area_bounds_exact;
          Alcotest.test_case "relaxed bound below exact bound" `Quick
            test_relaxed_vs_exact;
          Alcotest.test_case "bounds bracket the engine" `Slow
            test_brackets_engine;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "latency witness" `Quick test_latency_certificate;
          Alcotest.test_case "no admissible module" `Quick
            test_no_admissible_module;
          Alcotest.test_case "cycle overload witness cut" `Quick
            test_cycle_overload;
          Alcotest.test_case "energy deficit" `Quick test_energy_certificate;
          Alcotest.test_case "tampered certificates rejected" `Quick
            test_tampered_certificates_rejected;
        ] );
      ( "io",
        [
          Alcotest.test_case "render and json" `Quick test_render_and_json;
          Alcotest.test_case "json escapes a UTF-8 name" `Quick
            test_json_non_ascii_name;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        ] );
    ]
