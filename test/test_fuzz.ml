(* The differential fuzzer: sampler determinism, oracle cleanliness on the
   current engine, the qcheck shrinker contract (deterministic, failure-
   preserving, never growing), corpus round-trips, and the chaos-armed
   end-to-end check that a seeded engine bug is caught and minimized. *)

module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Library = Pchls_fulib.Library
module Fault = Pchls_resil.Fault
module Engine = Pchls_core.Engine
module Design = Pchls_core.Design
module Sampler = Pchls_fuzz.Sampler
module Oracle = Pchls_fuzz.Oracle
module Shrink = Pchls_fuzz.Shrink
module Corpus = Pchls_fuzz.Corpus
module Fuzz = Pchls_fuzz.Fuzz

let lib = Library.default
let sample ~seed ~case = Sampler.sample ~library:lib ~seed ~case ()

(* --- sampler ------------------------------------------------------------ *)

let test_sampler_deterministic () =
  for case = 0 to 20 do
    let a = sample ~seed:3 ~case and b = sample ~seed:3 ~case in
    Alcotest.(check bool) "same instance" true (Sampler.equal a b)
  done;
  let a = sample ~seed:3 ~case:0 and b = sample ~seed:4 ~case:0 in
  Alcotest.(check bool) "different seeds differ" false (Sampler.equal a b)

let prop_sampler_valid =
  QCheck.Test.make ~name:"sampled instances are engine-valid" ~count:100
    QCheck.(pair (int_bound 1000) (int_bound 200))
    (fun (seed, case) ->
      let i = sample ~seed ~case in
      i.Sampler.time_limit >= 1
      && i.Sampler.power_limit > 0.
      && Graph.node_count i.Sampler.graph >= 1
      && Result.is_ok
           (Result.map_error
              (fun _ -> "uncovered kind")
              (Library.covers lib i.Sampler.graph)))

(* --- oracles on the current engine -------------------------------------- *)

let test_campaign_clean_and_deterministic () =
  let config =
    { Fuzz.default_config with Fuzz.runs = 60; seed = 7; jobs = 2 }
  in
  let s1 =
    match Fuzz.run config with Ok s -> s | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "no failures" 0 (List.length s1.Fuzz.findings);
  Alcotest.(check int) "all cases accounted" 60
    (s1.Fuzz.feasible + s1.Fuzz.infeasible);
  Alcotest.(check bool) "exact splits within feasible" true
    (s1.Fuzz.exact_checked + s1.Fuzz.exact_skipped <= s1.Fuzz.feasible);
  let s2 =
    match Fuzz.run { config with Fuzz.jobs = 1 } with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "jobs do not change the report"
    (Fuzz.render_summary s1) (Fuzz.render_summary s2)

let test_exact_floor_bounds_engine () =
  (* On every small feasible instance, the engine's FU area must be at or
     above the exact optimum for its own schedule. *)
  let checked = ref 0 in
  for case = 0 to 40 do
    let i = sample ~seed:11 ~case in
    match
      Engine.run ~library:lib ~time_limit:i.Sampler.time_limit
        ~power_limit:i.Sampler.power_limit i.Sampler.graph
    with
    | Engine.Infeasible _ -> ()
    | Engine.Synthesized (d, _) -> (
      match Oracle.exact_fu_floor ~max_vertices:12 ~library:lib d with
      | None -> ()
      | Some floor ->
        incr checked;
        Alcotest.(check bool) "fu area >= exact floor" true
          ((Design.area d).Design.fu >= floor -. 1e-6))
  done;
  Alcotest.(check bool) "exact oracle exercised" true (!checked > 0)

let test_library_coverage_refused () =
  let add_only =
    Library.of_list_exn
      [
        Pchls_fulib.Module_spec.make_exn ~name:"add" ~ops:[ Op.Add ] ~area:87.
          ~latency:1 ~power:2.5;
      ]
  in
  match Fuzz.run { Fuzz.default_config with Fuzz.library = add_only } with
  | Error msg ->
    Alcotest.(check bool) "names the uncovered kinds" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "uncovering library must be refused"

(* --- shrinker ------------------------------------------------------------ *)

(* A synthetic, engine-independent failure: the instance contains at least
   two multiplications. Minimal failing instances are exactly two mult
   nodes and no edges. *)
let mult_count g =
  List.length (Graph.nodes_of_kind g Op.Mult)

let mult2_failure = { Oracle.oracle = "test"; code = "mult2"; detail = "" }
let mult2_bucket = Oracle.bucket mult2_failure

let mult2_pred i =
  if mult_count i.Sampler.graph >= 2 then Some mult2_failure else None

let prop_shrinker_contract =
  QCheck.Test.make ~name:"shrinking: deterministic, failure-preserving, minimal"
    ~count:60
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, case) ->
      let i = sample ~seed ~case in
      QCheck.assume (mult2_pred i <> None);
      let s1, f1 =
        Shrink.minimize ~predicate:mult2_pred ~bucket:mult2_bucket i
      in
      let s2, _ =
        Shrink.minimize ~predicate:mult2_pred ~bucket:mult2_bucket i
      in
      (* deterministic *)
      Sampler.equal s1 s2
      (* still fails, in the same bucket *)
      && mult2_pred s1 = Some f1
      && Oracle.bucket f1 = mult2_bucket
      (* never larger *)
      && Graph.node_count s1.Sampler.graph <= Graph.node_count i.Sampler.graph
      && Graph.edge_count s1.Sampler.graph <= Graph.edge_count i.Sampler.graph
      (* and for this predicate, exactly minimal *)
      && Graph.node_count s1.Sampler.graph = 2
      && Graph.edge_count s1.Sampler.graph = 0
      && mult_count s1.Sampler.graph = 2)

let test_shrink_rejects_non_failure () =
  let i = sample ~seed:1 ~case:0 in
  Alcotest.(check bool) "raises on a passing instance" true
    (try
       ignore
         (Shrink.minimize ~predicate:(fun _ -> None) ~bucket:"x-y" i);
       false
     with Invalid_argument _ -> true)

(* --- corpus -------------------------------------------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "pchls_fuzz_corpus" "" in
  Sys.remove path;
  path

let test_corpus_roundtrip () =
  let dir = temp_dir () in
  let i = sample ~seed:5 ~case:3 in
  let path = Corpus.write ~dir i mult2_failure in
  (match Corpus.files ~dir with
  | Ok [ p ] -> Alcotest.(check string) "listed" path p
  | Ok ps -> Alcotest.failf "expected one file, got %d" (List.length ps)
  | Error m -> Alcotest.fail m);
  (match Corpus.read path with
  | Error m -> Alcotest.fail m
  | Ok (j, f) ->
    Alcotest.(check bool) "instance round-trips" true
      (Graph.nodes i.Sampler.graph = Graph.nodes j.Sampler.graph
      && Graph.edges i.Sampler.graph = Graph.edges j.Sampler.graph
      && i.Sampler.time_limit = j.Sampler.time_limit
      && i.Sampler.power_limit = j.Sampler.power_limit);
    Alcotest.(check string) "oracle kept" "test" f.Oracle.oracle;
    Alcotest.(check string) "code kept" "mult2" f.Oracle.code);
  (* Re-writing the same instance dedupes to the same path. *)
  Alcotest.(check string) "stable name" path (Corpus.write ~dir i mult2_failure)

let test_corpus_missing_dir () =
  match Corpus.files ~dir:"/nonexistent/pchls-fuzz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing dir must be an error"

(* --- chaos: a seeded engine bug is caught and shrunk --------------------- *)

let test_chaos_bug_caught_and_shrunk () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> Fault.set None)
    (fun () ->
      Fault.set (Some "no-power-check");
      let config =
        {
          Fuzz.default_config with
          Fuzz.runs = 30;
          seed = 42;
          jobs = 2;
          corpus = Some dir;
        }
      in
      let s =
        match Fuzz.run config with Ok s -> s | Error m -> Alcotest.fail m
      in
      Alcotest.(check bool) "bug found" true (s.Fuzz.findings <> []);
      List.iter
        (fun f ->
          Alcotest.(check string) "power bucket" "power-peak" f.Fuzz.bucket;
          Alcotest.(check bool) "shrinking never grows" true
            (Graph.node_count f.Fuzz.shrunk.Sampler.graph
            <= Graph.node_count f.Fuzz.original.Sampler.graph);
          Alcotest.(check bool) "repro persisted" true (f.Fuzz.path <> None))
        s.Fuzz.findings;
      (* Greedy shrinking can stall above the global minimum on some
         cases, but the campaign must produce at least one tiny repro. *)
      let smallest =
        List.fold_left
          (fun acc f ->
            min acc (Graph.node_count f.Fuzz.shrunk.Sampler.graph))
          max_int s.Fuzz.findings
      in
      Alcotest.(check bool) "a repro shrunk to <= 8 nodes" true (smallest <= 8);
      (* With the fault disarmed, every minimized repro passes again. *)
      Fault.set None;
      match Fuzz.replay ~library:lib ~corpus:dir () with
      | Error m -> Alcotest.fail m
      | Ok r ->
        Alcotest.(check int) "repros present" (List.length r.Fuzz.results)
          r.Fuzz.total;
        Alcotest.(check bool) "corpus non-empty" true (r.Fuzz.total > 0);
        Alcotest.(check int) "all fixed" 0 r.Fuzz.still_failing;
        Alcotest.(check int) "all readable" 0 r.Fuzz.unreadable)

(* --- chaos: worker faults are tallied, never forged into findings -------- *)

let test_worker_faults_tallied_not_findings () =
  Fun.protect
    ~finally:(fun () -> Fault.set None)
    (fun () ->
      Fault.set (Some "pool.worker:0.3:5");
      let config =
        { Fuzz.default_config with Fuzz.runs = 40; seed = 1; jobs = 2 }
      in
      let s =
        match Fuzz.run config with Ok s -> s | Error m -> Alcotest.fail m
      in
      (* The engine is healthy, so injected worker crashes must surface as
         the faulted tally — zero oracle findings. *)
      Alcotest.(check (list pass)) "no findings" [] s.Fuzz.findings;
      Alcotest.(check bool) "some cases faulted" true (s.Fuzz.faulted > 0);
      Alcotest.(check int) "every case accounted for" config.Fuzz.runs
        (s.Fuzz.feasible + s.Fuzz.infeasible + s.Fuzz.faulted);
      (* The faulted tally appears in the report; the summary stays silent
         about chaos when nothing fired. *)
      let line = Fuzz.render_summary s in
      let contains needle hay =
        let n = String.length needle and m = String.length hay in
        let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "report shows the tally" true
        (contains (Printf.sprintf "%d faulted" s.Fuzz.faulted) line);
      Fault.set None;
      let clean =
        match Fuzz.run config with Ok s -> s | Error m -> Alcotest.fail m
      in
      Alcotest.(check int) "disarmed campaign has no faults" 0
        clean.Fuzz.faulted;
      Alcotest.(check bool) "disarmed report omits the tally" false
        (contains "faulted" (Fuzz.render_summary clean)))

let test_expired_deadline_skips_remaining_cases () =
  let b = Pchls_resil.Budget.make ~deadline_ms:0. () in
  let config =
    { Fuzz.default_config with Fuzz.runs = 10; jobs = 2; deadline = Some b }
  in
  let s = match Fuzz.run config with Ok s -> s | Error m -> Alcotest.fail m in
  Alcotest.(check int) "all cases skipped" 10 s.Fuzz.deadline_skipped;
  Alcotest.(check (list pass)) "no findings" [] s.Fuzz.findings;
  Alcotest.(check int) "nothing ran" 0 (s.Fuzz.feasible + s.Fuzz.infeasible)

let () =
  Alcotest.run "fuzz"
    [
      ( "sampler",
        [
          Alcotest.test_case "deterministic" `Quick test_sampler_deterministic;
          QCheck_alcotest.to_alcotest prop_sampler_valid;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean campaign, jobs-invariant" `Quick
            test_campaign_clean_and_deterministic;
          Alcotest.test_case "engine never beats the exact floor" `Quick
            test_exact_floor_bounds_engine;
          Alcotest.test_case "uncovering library refused" `Quick
            test_library_coverage_refused;
        ] );
      ( "shrink",
        [
          QCheck_alcotest.to_alcotest prop_shrinker_contract;
          Alcotest.test_case "rejects non-failure" `Quick
            test_shrink_rejects_non_failure;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "round-trip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "missing dir" `Quick test_corpus_missing_dir;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "seeded bug caught, shrunk, replayed" `Quick
            test_chaos_bug_caught_and_shrunk;
          Alcotest.test_case "worker faults tallied, not findings" `Quick
            test_worker_faults_tallied_not_findings;
          Alcotest.test_case "expired deadline skips cases" `Quick
            test_expired_deadline_skips_remaining_cases;
        ] );
    ]
