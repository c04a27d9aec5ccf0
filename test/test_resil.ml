(* The resilience toolkit: budget tokens (wall clock, iteration caps), the
   seeded fault-injection registry behind PCHLS_CHAOS, crash-safe atomic
   writes, and the overload primitives. *)

module Budget = Pchls_resil.Budget
module Fault = Pchls_resil.Fault
module Atomic_io = Pchls_resil.Atomic_io
module Admission = Pchls_resil.Admission
module Breaker = Pchls_resil.Breaker

(* --- budgets ------------------------------------------------------------ *)

let reason =
  Alcotest.testable Budget.pp_reason (fun a b ->
      (a : Budget.reason) = b)

let test_budget_unlimited_never_expires () =
  let b = Budget.make () in
  Alcotest.(check (option reason)) "check" None (Budget.check b);
  Budget.tick b;
  Budget.tick b;
  Alcotest.(check (option reason)) "after ticks" None (Budget.check b);
  Alcotest.(check bool) "exhausted" false (Budget.exhausted b);
  Alcotest.(check (option int64)) "no deadline" None (Budget.remaining_ns b)

let test_budget_iteration_cap () =
  let b = Budget.make ~max_iters:2 () in
  Alcotest.(check (option reason)) "fresh" None (Budget.check b);
  Budget.tick b;
  Alcotest.(check (option reason)) "one tick" None (Budget.check b);
  Budget.tick b;
  Alcotest.(check (option reason))
    "cap reached" (Some Budget.Iterations) (Budget.check b);
  Alcotest.(check int) "ticks counted" 2 (Budget.ticks b);
  (* The iteration cap is not an interruption: the wall clock is. *)
  Alcotest.(check (option reason)) "interrupted" None (Budget.interrupted b)

let test_budget_zero_iters_refuses_immediately () =
  let b = Budget.make ~max_iters:0 () in
  Alcotest.(check (option reason))
    "refused" (Some Budget.Iterations) (Budget.check b)

let test_budget_expired_deadline () =
  let b = Budget.make ~deadline_ms:0. () in
  (* A zero deadline is already in the past on the monotonic clock. *)
  Alcotest.(check (option reason))
    "expired" (Some Budget.Wall_clock) (Budget.check b);
  Alcotest.(check (option reason))
    "interrupting" (Some Budget.Wall_clock) (Budget.interrupted b);
  Alcotest.(check (option int64))
    "remaining clamped" (Some 0L) (Budget.remaining_ns b)

(* A deadline past the int64 nanosecond range saturates instead of
   wrapping into the past. *)
let test_budget_huge_deadline_never_expires () =
  List.iter
    (fun ms ->
      let b = Budget.make ~deadline_ms:ms () in
      let label = Printf.sprintf "deadline_ms %g" ms in
      Alcotest.(check (option reason)) label None (Budget.check b);
      Alcotest.(check bool)
        (label ^ ": time remains") true
        (match Budget.remaining_ns b with
        | Some ns -> Int64.compare ns 1_000_000_000_000L > 0
        | None -> false))
    [ 1e12; 1e13; 1e300; infinity ]

let test_budget_rejects_negatives () =
  Alcotest.(check bool) "deadline" true
    (try
       ignore (Budget.make ~deadline_ms:(-1.) ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "iters" true
    (try
       ignore (Budget.make ~max_iters:(-1) ());
       false
     with Invalid_argument _ -> true)

(* --- fault registry ----------------------------------------------------- *)

let with_chaos spec f =
  Fault.set (Some spec);
  Fun.protect ~finally:(fun () -> Fault.set None) f

let test_fault_parse_full_entry () =
  let arms, warnings = Fault.parse "pool.worker:0.5:7,cache.write" in
  Alcotest.(check (list string)) "no warnings" [] warnings;
  Alcotest.(check int) "two arms" 2 (List.length arms);
  let p, seed = List.assoc "pool.worker" arms in
  Alcotest.(check (float 0.)) "probability" 0.5 p;
  Alcotest.(check int) "seed" 7 seed;
  let p, seed = List.assoc "cache.write" arms in
  Alcotest.(check (float 0.)) "default probability" 1. p;
  Alcotest.(check int) "default seed" 0 seed

let test_fault_parse_unknown_name_warns () =
  (* Satellite: a typo must never silently disarm a chaos campaign. *)
  let arms, warnings = Fault.parse "pool.wrker" in
  Alcotest.(check (list (pair string (pair (float 0.) int))))
    "nothing armed" [] arms;
  match warnings with
  | [ w ] ->
    let contains needle =
      let n = String.length needle and m = String.length w in
      let rec go i = i + n <= m && (String.sub w i n = needle || go (i + 1)) in
      go 0
    in
    let mentions needle =
      Alcotest.(check bool)
        (Printf.sprintf "warning mentions %s" needle)
        true (contains needle)
    in
    mentions "pool.wrker";
    (* The catalog of known points is part of the message. *)
    List.iter mentions Fault.known
  | ws ->
    Alcotest.failf "expected exactly one warning, got %d" (List.length ws)

let test_fault_parse_bad_fields () =
  let _, w1 = Fault.parse "pool.worker:zero" in
  Alcotest.(check bool) "bad probability warns" true (w1 <> []);
  let _, w2 = Fault.parse "pool.worker:0.5:x" in
  Alcotest.(check bool) "bad seed warns" true (w2 <> []);
  let arms, w3 = Fault.parse "pool.worker:7.5" in
  Alcotest.(check (list string)) "clamp is silent" [] w3;
  Alcotest.(check (float 0.))
    "probability clamped to 1" 1.
    (fst (List.assoc "pool.worker" arms))

let test_fault_unarmed_never_fires () =
  Fault.set None;
  Alcotest.(check bool) "fires" false (Fault.fires ~key:0 "pool.worker");
  Fault.inject ~key:0 "pool.worker"

let test_fault_probability_one_always_fires () =
  with_chaos "pool.worker" (fun () ->
      for key = 0 to 20 do
        Alcotest.(check bool) "fires" true (Fault.fires ~key "pool.worker")
      done;
      Alcotest.(check bool) "armed" true (Fault.armed "pool.worker");
      Alcotest.(check bool) "others unarmed" false (Fault.armed "cache.read"))

let test_fault_seeded_draws_deterministic () =
  let draws () =
    with_chaos "pool.worker:0.5:7" (fun () ->
        List.init 64 (fun key -> Fault.fires ~key "pool.worker"))
  in
  let first = draws () in
  Alcotest.(check (list bool)) "replayed" first (draws ());
  let fired = List.length (List.filter Fun.id first) in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.5 fires some but not all (fired %d/64)" fired)
    true
    (fired > 0 && fired < 64);
  (* A different seed is a different (still deterministic) subset. *)
  let reseeded =
    with_chaos "pool.worker:0.5:8" (fun () ->
        List.init 64 (fun key -> Fault.fires ~key "pool.worker"))
  in
  Alcotest.(check bool) "seed matters" true (first <> reseeded);
  (* The salt distinguishes retry attempts of one key. *)
  let salted salt =
    with_chaos "pool.worker:0.5:7" (fun () ->
        List.init 64 (fun key -> Fault.fires ~key ~salt "pool.worker"))
  in
  Alcotest.(check bool) "salt matters" true (salted 0 <> salted 1)

let test_fault_inject_raises () =
  with_chaos "cache.read" (fun () ->
      Alcotest.check_raises "inject" (Fault.Injected "cache.read") (fun () ->
          Fault.inject ~key:3 "cache.read"))

(* --- admission queue ---------------------------------------------------- *)

let ms_to_ns ms = Int64.of_float (ms *. 1e6)

let test_admission_rejects_past_depth () =
  let q = Admission.create ~max_depth:2 ~max_age_ms:1000. () in
  Alcotest.(check bool) "first" true (Admission.offer q 1);
  Alcotest.(check bool) "second" true (Admission.offer q 2);
  Alcotest.(check bool) "third refused" false (Admission.offer q 3);
  Alcotest.(check int) "depth" 2 (Admission.length q);
  (match Admission.take q with
  | Admission.Fresh (1, _) -> ()
  | _ -> Alcotest.fail "expected Fresh 1");
  Alcotest.(check bool) "slot freed" true (Admission.offer q 4)

let test_admission_stale_head_drop () =
  (* CoDel-style drop ordering under a fake clock: everything older than
     max_age_ms is handed back as Stale, oldest first, before the first
     fresh entry comes out. *)
  let t = ref 0L in
  let q = Admission.create ~now:(fun () -> !t) ~max_depth:8 ~max_age_ms:10. () in
  ignore (Admission.offer q "a");
  ignore (Admission.offer q "b");
  t := ms_to_ns 11.;
  ignore (Admission.offer q "c");
  (match Admission.take q with
  | Admission.Stale ("a", age) ->
    Alcotest.(check (float 0.001)) "age of a" 11. age
  | _ -> Alcotest.fail "expected Stale a first");
  (match Admission.take q with
  | Admission.Stale ("b", _) -> ()
  | _ -> Alcotest.fail "expected Stale b second");
  (match Admission.take q with
  | Admission.Fresh ("c", age) ->
    Alcotest.(check (float 0.001)) "age of c" 0. age
  | _ -> Alcotest.fail "expected Fresh c last");
  Alcotest.(check int) "drained" 0 (Admission.length q)

let test_admission_close_drains () =
  let q = Admission.create ~max_depth:4 ~max_age_ms:1000. () in
  ignore (Admission.offer q "queued");
  Admission.close q;
  Alcotest.(check bool) "closed refuses" false (Admission.offer q "late");
  (match Admission.take q with
  | Admission.Fresh ("queued", _) -> ()
  | _ -> Alcotest.fail "queued entry must drain after close");
  (match Admission.take q with
  | Admission.Closed -> ()
  | _ -> Alcotest.fail "drained closed queue must report Closed")

let test_admission_rejects_bad_args () =
  Alcotest.(check bool) "negative depth" true
    (try
       ignore (Admission.create ~max_depth:(-1) ~max_age_ms:1. ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero age" true
    (try
       ignore (Admission.create ~max_depth:1 ~max_age_ms:0. ());
       false
     with Invalid_argument _ -> true)

(* --- circuit breaker ---------------------------------------------------- *)

let state =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Breaker.state_to_string s))
    (fun a b -> (a : Breaker.state) = b)

let test_breaker_trips_on_failure_rate () =
  let t = ref 0L in
  let transitions = ref [] in
  let b =
    Breaker.create
      ~now:(fun () -> !t)
      ~window:10 ~threshold:0.5 ~min_samples:4 ~cooldown_ms:100.
      ~on_transition:(fun o n -> transitions := (o, n) :: !transitions)
      ~name:"test" ()
  in
  Alcotest.(check state) "starts closed" Breaker.Closed (Breaker.state b);
  (* Two successes, then failures: the rate only counts once min_samples
     outcomes are in the window. *)
  for _ = 1 to 2 do
    Alcotest.(check bool) "closed admits" true (Breaker.acquire b);
    Breaker.success b
  done;
  Alcotest.(check bool) "still admits" true (Breaker.acquire b);
  Breaker.failure b;
  Alcotest.(check state) "one failure is not a trip" Breaker.Closed
    (Breaker.state b);
  Alcotest.(check bool) "still admits" true (Breaker.acquire b);
  Breaker.failure b;
  (* s s f f: 4 samples, rate 0.5 >= threshold -> open. *)
  Alcotest.(check state) "tripped" Breaker.Open (Breaker.state b);
  Alcotest.(check int) "trips counted" 1 (Breaker.trips b);
  Alcotest.(check bool) "open fast-fails" false (Breaker.acquire b);
  let retry = Breaker.retry_after_ms b in
  Alcotest.(check bool)
    (Printf.sprintf "cooldown %.1f in [100, 125]" retry)
    true
    (retry >= 100. && retry <= 125.);
  (* After the cooldown: exactly one probe goes through. *)
  t := ms_to_ns (retry +. 1.);
  Alcotest.(check bool) "probe admitted" true (Breaker.acquire b);
  Alcotest.(check state) "half-open" Breaker.Half_open (Breaker.state b);
  Alcotest.(check bool) "second probe refused" false (Breaker.acquire b);
  Breaker.success b;
  Alcotest.(check state) "probe success closes" Breaker.Closed (Breaker.state b);
  Alcotest.(check (list (pair state state)))
    "transitions, most recent first"
    [
      (Breaker.Half_open, Breaker.Closed);
      (Breaker.Open, Breaker.Half_open);
      (Breaker.Closed, Breaker.Open);
    ]
    !transitions

let test_breaker_failed_probe_reopens () =
  let t = ref 0L in
  let b =
    Breaker.create
      ~now:(fun () -> !t)
      ~window:4 ~threshold:0.5 ~min_samples:2 ~cooldown_ms:50. ~name:"probe" ()
  in
  Alcotest.(check bool) "admit" true (Breaker.acquire b);
  Breaker.failure b;
  Alcotest.(check bool) "admit" true (Breaker.acquire b);
  Breaker.failure b;
  Alcotest.(check state) "tripped" Breaker.Open (Breaker.state b);
  t := ms_to_ns (Breaker.retry_after_ms b +. 1.);
  Alcotest.(check bool) "probe" true (Breaker.acquire b);
  Breaker.failure b;
  Alcotest.(check state) "failed probe reopens" Breaker.Open (Breaker.state b);
  Alcotest.(check int) "second trip" 2 (Breaker.trips b)

let test_breaker_seeded_cooldowns_replay () =
  (* The jitter draw is a pure function of (name, seed, trip count):
     identical breakers replay identical cooldowns; a different seed
     explores a different (deterministic) schedule. *)
  let cooldowns ~seed =
    let t = ref 0L in
    let b =
      Breaker.create
        ~now:(fun () -> !t)
        ~window:4 ~threshold:0.5 ~min_samples:2 ~cooldown_ms:100. ~seed
        ~name:"seeded" ()
    in
    List.init 4 (fun _ ->
        (match Breaker.state b with
        | Breaker.Closed ->
          Alcotest.(check bool) "admit" true (Breaker.acquire b);
          Breaker.failure b;
          Alcotest.(check bool) "admit" true (Breaker.acquire b);
          Breaker.failure b
        | _ ->
          t := Int64.add !t (ms_to_ns (Breaker.retry_after_ms b +. 1.));
          Alcotest.(check bool) "probe" true (Breaker.acquire b);
          Breaker.failure b);
        Breaker.retry_after_ms b)
  in
  Alcotest.(check (list (float 0.)))
    "same seed replays" (cooldowns ~seed:7) (cooldowns ~seed:7);
  Alcotest.(check bool) "different seed differs" true
    (cooldowns ~seed:7 <> cooldowns ~seed:8)

(* --- atomic writes ------------------------------------------------------ *)

let temp_dir () =
  let path = Filename.temp_file "pchls_resil_test" "" in
  Sys.remove path;
  path

let files dir = Sys.readdir dir |> Array.to_list |> List.sort compare

let read_all path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let test_atomic_write_roundtrip_no_temp_left () =
  let dir = temp_dir () in
  Atomic_io.mkdirs (Filename.concat dir "a/b");
  Alcotest.(check bool) "nested dirs" true
    (Sys.is_directory (Filename.concat dir "a/b"));
  (* mkdirs is idempotent. *)
  Atomic_io.mkdirs (Filename.concat dir "a/b");
  let path = Filename.concat dir "a/b/entry.txt" in
  Atomic_io.write_file path "one\n";
  Atomic_io.write_file path "two\n";
  Alcotest.(check string) "last write wins" "two\n" (read_all path);
  Alcotest.(check (list string))
    "no temporaries left" [ "entry.txt" ]
    (files (Filename.concat dir "a/b"))

let test_atomic_with_out_failure_leaves_target_untouched () =
  let dir = temp_dir () in
  Atomic_io.mkdirs dir;
  let path = Filename.concat dir "entry.txt" in
  Atomic_io.write_file path "intact\n";
  Alcotest.check_raises "producer exception escapes" Exit (fun () ->
      Atomic_io.with_out path (fun oc ->
          output_string oc "half-writ";
          raise Exit));
  Alcotest.(check string) "previous contents survive" "intact\n"
    (read_all path);
  Alcotest.(check (list string)) "temporary removed" [ "entry.txt" ]
    (files dir)

let test_atomic_write_missing_dir_is_sys_error () =
  let dir = temp_dir () in
  Alcotest.(check bool) "raises Sys_error" true
    (try
       Atomic_io.write_file (Filename.concat dir "missing/entry.txt") "x";
       false
     with Sys_error _ -> true)

let () =
  Alcotest.run "resil"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick
            test_budget_unlimited_never_expires;
          Alcotest.test_case "iteration cap" `Quick test_budget_iteration_cap;
          Alcotest.test_case "zero iters" `Quick
            test_budget_zero_iters_refuses_immediately;
          Alcotest.test_case "expired deadline" `Quick
            test_budget_expired_deadline;
          Alcotest.test_case "huge deadline" `Quick
            test_budget_huge_deadline_never_expires;
          Alcotest.test_case "rejects negatives" `Quick
            test_budget_rejects_negatives;
        ] );
      ( "fault",
        [
          Alcotest.test_case "parse full entry" `Quick
            test_fault_parse_full_entry;
          Alcotest.test_case "unknown name warns" `Quick
            test_fault_parse_unknown_name_warns;
          Alcotest.test_case "bad fields" `Quick test_fault_parse_bad_fields;
          Alcotest.test_case "unarmed" `Quick test_fault_unarmed_never_fires;
          Alcotest.test_case "probability one" `Quick
            test_fault_probability_one_always_fires;
          Alcotest.test_case "seeded draws" `Quick
            test_fault_seeded_draws_deterministic;
          Alcotest.test_case "inject raises" `Quick test_fault_inject_raises;
        ] );
      ( "admission",
        [
          Alcotest.test_case "depth bound" `Quick
            test_admission_rejects_past_depth;
          Alcotest.test_case "stale head drop" `Quick
            test_admission_stale_head_drop;
          Alcotest.test_case "close drains" `Quick test_admission_close_drains;
          Alcotest.test_case "rejects bad args" `Quick
            test_admission_rejects_bad_args;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips on failure rate" `Quick
            test_breaker_trips_on_failure_rate;
          Alcotest.test_case "failed probe reopens" `Quick
            test_breaker_failed_probe_reopens;
          Alcotest.test_case "seeded cooldowns" `Quick
            test_breaker_seeded_cooldowns_replay;
        ] );
      ( "atomic-io",
        [
          Alcotest.test_case "round trip" `Quick
            test_atomic_write_roundtrip_no_temp_left;
          Alcotest.test_case "failed producer" `Quick
            test_atomic_with_out_failure_leaves_target_untouched;
          Alcotest.test_case "missing dir" `Quick
            test_atomic_write_missing_dir_is_sys_error;
        ] );
    ]
