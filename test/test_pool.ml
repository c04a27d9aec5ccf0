(* The domain pool: order preservation, exception capture, single-task
   dispatch ([run]), shutdown semantics, and the qcheck property that a
   parallel Explore.sweep is point-for-point identical to a sequential
   one. *)

module Pool = Pchls_par.Pool
module Explore = Pchls_core.Explore
module Design = Pchls_core.Design
module Generator = Pchls_dfg.Generator
module Graph = Pchls_dfg.Graph
module Library = Pchls_fulib.Library
module B = Pchls_dfg.Benchmarks

let test_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "squares in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

let test_map_empty_and_singleton () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map pool succ [ 1 ]))

let test_sequential_pool_runs_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      Alcotest.(check (list int))
        "inline map" [ 2; 3; 4 ]
        (Pool.map pool succ [ 1; 2; 3 ]))

let test_default_jobs_positive () =
  Pool.with_pool (fun pool ->
      Alcotest.(check bool) "jobs >= 1" true (Pool.jobs pool >= 1))

let test_create_rejects_nonpositive_jobs () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Pool.create: jobs must be >= 1, got 0") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_exception_is_earliest_input () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* Several tasks fail; whatever finishes first, the surfaced
         exception must be the one from the smallest input index. *)
      Alcotest.check_raises "earliest failure wins" (Failure "boom 2")
        (fun () ->
          ignore
            (Pool.map pool
               (fun x ->
                 if x mod 2 = 0 then failwith (Printf.sprintf "boom %d" x)
                 else x)
               [ 1; 2; 3; 4; 5; 6 ])))

let test_pool_survives_task_failure () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (try ignore (Pool.map pool (fun _ -> failwith "boom") [ 1; 2; 3 ])
       with Failure _ -> ());
      Alcotest.(check (list int))
        "pool still works" [ 10; 20 ]
        (Pool.map pool (fun x -> 10 * x) [ 1; 2 ]))

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 () in
  Alcotest.(check (list int)) "works" [ 1 ] (Pool.map pool Fun.id [ 1 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool: pool has been shut down") (fun () ->
      ignore (Pool.map pool Fun.id [ 1 ]))

let test_pool_reuse_across_maps () =
  Pool.with_pool ~jobs:4 (fun pool ->
      for i = 1 to 5 do
        let xs = List.init (10 * i) Fun.id in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" i)
          (List.map (fun x -> x + i) xs)
          (Pool.map pool (fun x -> x + i) xs)
      done)

(* --- run: one task, dispatched ------------------------------------------ *)

let test_run_on_worker_domain () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let caller = (Domain.self () :> int) in
      let value, worker =
        Pool.run pool (fun () -> (42, (Domain.self () :> int)))
      in
      Alcotest.(check int) "value returned" 42 value;
      Alcotest.(check bool) "ran on a worker domain" true (worker <> caller))

let test_run_reraises () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "task exception at the caller" (Failure "task boom")
        (fun () -> Pool.run pool (fun () -> failwith "task boom"));
      Alcotest.(check int) "pool still works" 7 (Pool.run pool (fun () -> 7)))

let test_run_inline_at_one_job () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let caller = (Domain.self () :> int) in
      Alcotest.(check int) "ran on the calling domain" caller
        (Pool.run pool (fun () -> (Domain.self () :> int))))

let test_run_after_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool: pool has been shut down") (fun () ->
      Pool.run pool (fun () -> ()))

(* [pchls serve]'s dispatch pattern: every handler thread calls [run] at
   once on one pool. Each caller gets its own value back, and a task that
   raises re-raises in its own caller only. *)
let test_run_concurrent_callers () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let callers = 8 in
      let fails i = i mod 3 = 1 in
      let outcomes = Array.make callers "" in
      let ready = Atomic.make 0 in
      let call i () =
        Atomic.incr ready;
        while Atomic.get ready < callers do
          Thread.yield ()
        done;
        outcomes.(i) <-
          (match
             Pool.run pool (fun () ->
                 Unix.sleepf 0.002;
                 if fails i then failwith (Printf.sprintf "boom %d" i)
                 else i * i)
           with
          | v -> Printf.sprintf "ok:%d" v
          | exception Failure msg -> "raised:" ^ msg)
      in
      List.iter Thread.join
        (List.init callers (fun i -> Thread.create (call i) ()));
      Alcotest.(check (array string))
        "own value or own exception, per caller"
        (Array.init callers (fun i ->
             if fails i then Printf.sprintf "raised:boom %d" i
             else Printf.sprintf "ok:%d" (i * i)))
        outcomes)

(* --- accounting: one count per dispatched task -------------------------- *)

module Metrics = Pchls_obs.Metrics

(* [pool.tasks] and the observation counts of the two task histograms. *)
let task_counts () =
  let snapshot = Metrics.snapshot () in
  let observations name =
    match List.assoc_opt name snapshot with
    | Some (Metrics.Histogram h) -> h.Metrics.count
    | Some (Metrics.Counter _ | Metrics.Gauge _) | None -> 0
  in
  [
    Metrics.counter_value (Metrics.counter "pool.tasks");
    observations "pool.task_wait_ns";
    observations "pool.task_run_ns";
  ]

let check_dispatched what n f =
  let before = task_counts () in
  (try ignore (f ()) with Failure _ -> ());
  Alcotest.(check (list int))
    (what ^ ": tasks, waits, runs")
    [ n; n; n ]
    (List.map2 ( - ) (task_counts ()) before)

let test_accounting_counts_dispatched_tasks () =
  let boom x = if x = 2 then failwith "boom" else x in
  Pool.with_pool ~jobs:2 (fun pool ->
      check_dispatched "map" 5 (fun () ->
          Pool.map pool succ [ 1; 2; 3; 4; 5 ]);
      check_dispatched "map with a failure" 3 (fun () ->
          Pool.map pool boom [ 1; 2; 3 ]);
      check_dispatched "run" 1 (fun () -> Pool.run pool (fun () -> 1));
      check_dispatched "run that raises" 1 (fun () ->
          Pool.run pool (fun () -> failwith "boom"));
      check_dispatched "try_map with a retried failure" 4 (fun () ->
          Pool.try_map pool boom [ 1; 2; 3; 4 ]);
      check_dispatched "map on one element" 0 (fun () ->
          Pool.map pool succ [ 1 ]);
      check_dispatched "try_map on one element" 0 (fun () ->
          Pool.try_map pool succ [ 1 ]));
  Pool.with_pool ~jobs:1 (fun pool ->
      check_dispatched "map at jobs=1" 0 (fun () ->
          Pool.map pool succ [ 1; 2; 3 ]);
      check_dispatched "run at jobs=1" 0 (fun () ->
          Pool.run pool (fun () -> 1));
      check_dispatched "try_map at jobs=1" 0 (fun () ->
          Pool.try_map pool boom [ 1; 2; 3 ]))

(* --- try_map: per-item isolation, retries, chaos ------------------------ *)

module Fault = Pchls_resil.Fault

let with_chaos spec f =
  Fault.set (Some spec);
  Fun.protect ~finally:(fun () -> Fault.set None) f

let outcome_signature = function
  | Ok v -> Printf.sprintf "ok:%d" v
  | Error (f : Pool.failure) ->
    Printf.sprintf "error(%d):%s" f.Pool.attempts (Printexc.to_string f.exn)

let test_try_map_isolates_failures () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 20 Fun.id in
      let results =
        Pool.try_map pool
          (fun x -> if x mod 7 = 3 then failwith "boom" else x * x)
          xs
      in
      Alcotest.(check (list string))
        "failures isolated, order preserved"
        (List.map
           (fun x ->
             if x mod 7 = 3 then "error(2):Failure(\"boom\")"
             else Printf.sprintf "ok:%d" (x * x))
           xs)
        (List.map outcome_signature results))

let test_try_map_inline_continues_past_failures () =
  (* Unlike map (which stops at the first exception when jobs = 1), the
     inline try_map path must still evaluate every item. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let evaluated = ref [] in
      let results =
        Pool.try_map ~retries:0 pool
          (fun x ->
            evaluated := x :: !evaluated;
            if x = 0 then failwith "boom" else x)
          [ 0; 1; 2 ]
      in
      Alcotest.(check (list int)) "all evaluated" [ 0; 1; 2 ]
        (List.sort compare !evaluated);
      Alcotest.(check (list string))
        "first failed, rest fine"
        [ "error(1):Failure(\"boom\")"; "ok:1"; "ok:2" ]
        (List.map outcome_signature results))

let test_try_map_retry_recovers_flaky_item () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let attempts = Hashtbl.create 8 in
      let results =
        Pool.try_map ~retries:2 pool
          (fun x ->
            let n = try Hashtbl.find attempts x with Not_found -> 0 in
            Hashtbl.replace attempts x (n + 1);
            if x = 1 && n < 2 then failwith "flaky" else x)
          [ 0; 1; 2 ]
      in
      Alcotest.(check (list string))
        "flaky item recovered on third attempt"
        [ "ok:0"; "ok:1"; "ok:2" ]
        (List.map outcome_signature results);
      Alcotest.(check int) "item 1 took 3 attempts" 3
        (Hashtbl.find attempts 1))

let test_try_map_chaos_kills_seeded_subset () =
  (* A fault at p=1 kills every attempt of every item; the campaign still
     returns one terminal failure per item instead of aborting. *)
  with_chaos "pool.worker" (fun () ->
      Pool.with_pool ~jobs:4 (fun pool ->
          let results = Pool.try_map ~retries:1 pool (fun x -> x) [ 1; 2; 3 ] in
          List.iter
            (fun r ->
              match r with
              | Error { Pool.attempts = 2; exn = Fault.Injected "pool.worker"; _ }
                ->
                ()
              | r -> Alcotest.failf "unexpected: %s" (outcome_signature r))
            results));
  (* At p=0.5 the doomed items (both salted attempts firing) are exactly
     predictable from the pure draw function, whatever the scheduling. *)
  with_chaos "pool.worker:0.5:11" (fun () ->
      let doomed key =
        Fault.fires ~key ~salt:0 "pool.worker"
        && Fault.fires ~key ~salt:1 "pool.worker"
      in
      let expected =
        List.init 32 (fun i ->
            if doomed i then "error" else Printf.sprintf "ok:%d" (i * i))
      in
      Pool.with_pool ~jobs:4 (fun pool ->
          let results =
            Pool.try_map ~retries:1 pool (fun x -> x * x) (List.init 32 Fun.id)
          in
          Alcotest.(check (list string))
            "exactly the doomed subset fails" expected
            (List.map
               (function
                 | Ok v -> Printf.sprintf "ok:%d" v
                 | Error _ -> "error")
               results)))

let test_try_map_rejects_negative_retries () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check bool) "invalid" true
        (try
           ignore (Pool.try_map ~retries:(-1) pool Fun.id [ 1 ]);
           false
         with Invalid_argument _ -> true))

(* Satellite: shutdown while tasks are raising in flight must join every
   worker exactly once — no deadlock, no leaked domain, and the pool ends
   cleanly closed. *)
let test_shutdown_with_in_flight_exceptions () =
  for round = 0 to 4 do
    let pool = Pool.create ~jobs:4 () in
    (try
       ignore
         (Pool.map pool
            (fun x ->
              if x mod 3 = round mod 3 then failwith "in-flight crash"
              else x)
            (List.init 64 Fun.id))
     with Failure _ -> ());
    (* try_map failures must not poison shutdown either. *)
    let results =
      Pool.try_map ~retries:0 pool
        (fun x -> if x land 1 = 0 then raise Exit else x)
        (List.init 16 Fun.id)
    in
    Alcotest.(check int)
      "half the items failed" 8
      (List.length (List.filter Result.is_error results));
    Pool.shutdown pool;
    Pool.shutdown pool;
    Alcotest.check_raises "closed after crashy rounds"
      (Invalid_argument "Pool: pool has been shut down") (fun () ->
        ignore (Pool.try_map pool Fun.id [ 1 ]))
  done

(* --- parallel sweep equivalence ----------------------------------------- *)

let point_signature pt =
  Printf.sprintf "T=%d P<=%h %s" pt.Explore.time_limit pt.Explore.power_limit
    (match pt.Explore.result with
    | Explore.Feasible { area; peak; design } ->
      Printf.sprintf "area=%h peak=%h makespan=%d instances=%s" area peak
        (Design.makespan design)
        (String.concat ";"
           (List.map
              (fun (i : Design.instance) ->
                Printf.sprintf "%d:%s:%s" i.Design.id
                  i.Design.spec.Pchls_fulib.Module_spec.name
                  (String.concat ","
                     (List.map
                        (fun (op, t) -> Printf.sprintf "%d@%d" op t)
                        i.Design.ops)))
              (Design.instances design)))
    | Explore.Infeasible reason -> "infeasible: " ^ reason
    | Explore.Pruned reason -> "pruned: " ^ reason
    | Explore.Failed reason -> "failed: " ^ reason)

(* The acceptance shape for chaos in a sweep: a seeded worker fault fails
   exactly the affected grid points; every other point of a 16-point grid
   is byte-identical to the unfaulted sweep. *)
let test_sweep_under_worker_faults_fails_only_affected_points () =
  let times = [ 10; 17 ] and powers = [ 5.; 10.; 20.; 30.; 50.; 80.; 100.; 150. ] in
  let sweep () =
    Explore.sweep ~jobs:4 ~library:Library.default B.hal ~times ~powers
  in
  let baseline = List.map point_signature (sweep ()) in
  Alcotest.(check int) "16 points" 16 (List.length baseline);
  (* Pick the first seed whose doomed subset is non-trivial, so the test
     can never pass vacuously. *)
  let doomed_under seed =
    with_chaos (Printf.sprintf "pool.worker:0.5:%d" seed) (fun () ->
        List.init 16 (fun key ->
            Fault.fires ~key ~salt:0 "pool.worker"
            && Fault.fires ~key ~salt:1 "pool.worker"))
  in
  let seed =
    let rec pick seed =
      let doomed = doomed_under seed in
      if List.mem true doomed && List.mem false doomed then seed
      else pick (seed + 1)
    in
    pick 0
  in
  let doomed = doomed_under seed in
  let faulted =
    with_chaos (Printf.sprintf "pool.worker:0.5:%d" seed) (fun () -> sweep ())
  in
  List.iteri
    (fun i (reference, pt) ->
      if List.nth doomed i then
        match pt.Explore.result with
        | Explore.Failed reason ->
          Alcotest.(check string)
            (Printf.sprintf "point %d reports the injected fault" i)
            "injected fault: pool.worker" reason
        | Explore.Feasible _ | Explore.Infeasible _ | Explore.Pruned _ ->
          Alcotest.failf "point %d should have failed" i
      else
        Alcotest.(check string)
          (Printf.sprintf "point %d byte-identical" i)
          reference (point_signature pt))
    (List.combine baseline faulted)

(* Every point goes through [Pool.try_map] whatever [jobs] is, so a
   seeded worker fault fails the same points at -j 1 as at -j 2 (and
   -j 0 counts as 1). *)
let test_sweep_chaos_table_independent_of_jobs () =
  let sweep jobs =
    with_chaos "pool.worker:0.5:3" (fun () ->
        List.map point_signature
          (Explore.sweep ~jobs ~library:Library.default B.hal ~times:[ 17 ]
             ~powers:(List.init 8 (fun i -> 5. *. float_of_int (i + 1)))))
  in
  let one = sweep 1 in
  Alcotest.(check bool) "some point is faulted" true
    (List.exists
       (String.ends_with ~suffix:"failed: injected fault: pool.worker")
       one);
  Alcotest.(check (list string)) "-j 2 matches -j 1" one (sweep 2);
  Alcotest.(check (list string)) "-j 0 matches -j 1" one (sweep 0)

let graph_gen =
  QCheck.Gen.(
    map3
      (fun seed layers width ->
        Generator.layered ~seed ~layers:(1 + layers) ~width:(1 + width) ())
      (int_bound 10_000) (int_bound 2) (int_bound 2))

let arbitrary_graph =
  QCheck.make graph_gen ~print:(fun g -> Format.asprintf "%a" Graph.pp g)

let prop_parallel_sweep_identical =
  QCheck.Test.make ~count:10
    ~name:"Explore.sweep ~jobs:4 is point-for-point identical to ~jobs:1"
    arbitrary_graph (fun g ->
      let sweep ~jobs ?cache () =
        Explore.sweep ~jobs ?cache ~library:Library.default g
          ~times:[ 10; 25 ] ~powers:[ 8.; 30. ]
      in
      let reference = List.map point_signature (sweep ~jobs:1 ()) in
      let parallel = List.map point_signature (sweep ~jobs:4 ()) in
      let cached =
        let store = Pchls_cache.Store.in_memory () in
        List.map point_signature (sweep ~jobs:4 ~cache:store ())
      in
      reference = parallel && reference = cached)

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "jobs=1 runs inline" `Quick
            test_sequential_pool_runs_inline;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
          Alcotest.test_case "rejects jobs<1" `Quick
            test_create_rejects_nonpositive_jobs;
          Alcotest.test_case "reuse across maps" `Quick
            test_pool_reuse_across_maps;
        ] );
      ( "errors",
        [
          Alcotest.test_case "earliest failure wins" `Quick
            test_exception_is_earliest_input;
          Alcotest.test_case "survives task failure" `Quick
            test_pool_survives_task_failure;
        ] );
      ( "run",
        [
          Alcotest.test_case "value from a worker domain" `Quick
            test_run_on_worker_domain;
          Alcotest.test_case "task exception re-raised" `Quick
            test_run_reraises;
          Alcotest.test_case "jobs=1 runs inline" `Quick
            test_run_inline_at_one_job;
          Alcotest.test_case "shut-down pool raises" `Quick
            test_run_after_shutdown;
          Alcotest.test_case "concurrent callers" `Quick
            test_run_concurrent_callers;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "counts dispatched tasks only" `Quick
            test_accounting_counts_dispatched_tasks;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "shutdown with in-flight exceptions" `Quick
            test_shutdown_with_in_flight_exceptions;
        ] );
      ( "try_map",
        [
          Alcotest.test_case "isolates failures" `Quick
            test_try_map_isolates_failures;
          Alcotest.test_case "inline continues past failures" `Quick
            test_try_map_inline_continues_past_failures;
          Alcotest.test_case "retry recovers flaky item" `Quick
            test_try_map_retry_recovers_flaky_item;
          Alcotest.test_case "chaos kills seeded subset" `Quick
            test_try_map_chaos_kills_seeded_subset;
          Alcotest.test_case "rejects negative retries" `Quick
            test_try_map_rejects_negative_retries;
          Alcotest.test_case "sweep fails only faulted points" `Quick
            test_sweep_under_worker_faults_fails_only_affected_points;
          Alcotest.test_case "sweep chaos table independent of jobs" `Quick
            test_sweep_chaos_table_independent_of_jobs;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_parallel_sweep_identical ] );
    ]
