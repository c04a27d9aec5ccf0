(* The synthesis cache: canonical graph fingerprints (invariant under
   node-id renumbering, sensitive to structural mutation), the two-tier
   store, and the end-to-end guarantee that a cached sweep re-runs zero
   engine invocations while returning identical designs. *)

module Fingerprint = Pchls_cache.Fingerprint
module Store = Pchls_cache.Store
module Explore = Pchls_core.Explore
module Design = Pchls_core.Design
module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Generator = Pchls_dfg.Generator
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec

(* --- fingerprints ------------------------------------------------------- *)

let diamond ~ids =
  match ids with
  | [ a; b; c; d ] ->
    Graph.create_exn ~name:"diamond"
      ~nodes:
        [
          { Graph.id = a; name = "x"; kind = Op.Input };
          { Graph.id = b; name = "a1"; kind = Op.Add };
          { Graph.id = c; name = "m1"; kind = Op.Mult };
          { Graph.id = d; name = "y"; kind = Op.Output };
        ]
      ~edges:[ (a, b); (a, c); (b, d); (c, d) ]
  | _ -> assert false

let test_graph_fingerprint_id_invariant () =
  let fp ids = Fingerprint.graph (diamond ~ids) in
  Alcotest.(check string)
    "renumbered ids digest equally"
    (fp [ 0; 1; 2; 3 ])
    (fp [ 42; 7; 100; 3 ])

let test_graph_fingerprint_sensitive () =
  let base = Fingerprint.graph (diamond ~ids:[ 0; 1; 2; 3 ]) in
  let kind_flipped =
    Graph.create_exn ~name:"diamond"
      ~nodes:
        [
          { Graph.id = 0; name = "x"; kind = Op.Input };
          { Graph.id = 1; name = "a1"; kind = Op.Sub };
          { Graph.id = 2; name = "m1"; kind = Op.Mult };
          { Graph.id = 3; name = "y"; kind = Op.Output };
        ]
      ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  let rewired =
    Graph.create_exn ~name:"diamond"
      ~nodes:
        [
          { Graph.id = 0; name = "x"; kind = Op.Input };
          { Graph.id = 1; name = "a1"; kind = Op.Add };
          { Graph.id = 2; name = "m1"; kind = Op.Mult };
          { Graph.id = 3; name = "y"; kind = Op.Output };
        ]
      ~edges:[ (0, 1); (0, 2); (1, 2); (2, 3) ]
  in
  Alcotest.(check bool) "kind flip changes digest" false
    (String.equal base (Fingerprint.graph kind_flipped));
  Alcotest.(check bool) "rewiring changes digest" false
    (String.equal base (Fingerprint.graph rewired))

(* Two directed chains of 200 identically named Adds with one Mult, at
   position 100 in one and 101 in the other. No node lies within 64 hops
   of both the Mult and a chain end, so a refinement capped at 32 rounds
   sees the same label multiset in both; the stable partition does not. *)
let test_graph_fingerprint_deep_chain () =
  let chain mult_at = Test_helpers.alike_chain ~mult_at 200 in
  Alcotest.(check bool) "Mult at 100 vs 101" false
    (String.equal (Fingerprint.graph (chain 100)) (Fingerprint.graph (chain 101)))

(* Alike nodes in a chain are told apart one split at a time, from both
   ends inwards. A split re-examines only the split cell's neighbours, so
   10 000 of them cost tens of ms, as 10 000 distinct nodes do; re-signing
   the whole chain at every step would take seconds. *)
let test_graph_fingerprint_alike_chain_cost () =
  let g = Test_helpers.alike_chain 10_000 in
  let t0 = Unix.gettimeofday () in
  ignore (Fingerprint.graph g);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "10 000-node chain in %.3f s, under 2 s" elapsed)
    true (elapsed < 2.)

let test_library_fingerprint_order_sensitive () =
  let a = Module_spec.make_exn ~name:"a" ~ops:[ Op.Add ] ~area:1. ~latency:1 ~power:1. in
  let b = Module_spec.make_exn ~name:"b" ~ops:[ Op.Add ] ~area:2. ~latency:1 ~power:1. in
  Alcotest.(check bool)
    "registration order matters (engine ties break on it)" false
    (String.equal
       (Fingerprint.library (Library.of_list_exn [ a; b ]))
       (Fingerprint.library (Library.of_list_exn [ b; a ])))

(* Random graphs with randomly renumbered ids must fingerprint equally;
   a mutated kind or a dropped edge must not. *)
let graph_gen =
  QCheck.Gen.(
    map3
      (fun seed layers width ->
        (seed, Generator.layered ~seed ~layers:(1 + layers) ~width:(1 + width) ()))
      (int_bound 10_000) (int_bound 4) (int_bound 3))

let arbitrary_seeded_graph =
  QCheck.make graph_gen ~print:(fun (seed, g) ->
      Format.asprintf "seed %d:@ %a" seed Graph.pp g)

let prop_fingerprint_invariant_under_renumbering =
  QCheck.Test.make ~count:50
    ~name:"Fingerprint.graph is invariant under node-id permutation"
    arbitrary_seeded_graph (fun (seed, g) ->
      String.equal (Fingerprint.graph g)
        (Fingerprint.graph (Test_helpers.permute_ids ~seed g)))

let flip_kind = function
  | Op.Add -> Op.Sub
  | Op.Sub | Op.Mult | Op.Comp -> Op.Add
  | (Op.Input | Op.Output) as k -> k

let prop_fingerprint_distinguishes_mutations =
  QCheck.Test.make ~count:50
    ~name:"Fingerprint.graph distinguishes mutated graphs"
    arbitrary_seeded_graph (fun (_, g) ->
      let base = Fingerprint.graph g in
      let nodes = Graph.nodes g in
      let mutable_node =
        List.find_opt
          (fun (n : Graph.node) -> not (Op.is_transfer n.Graph.kind))
          nodes
      in
      let kind_differs =
        match mutable_node with
        | None -> true (* no operation to flip; nothing to check *)
        | Some victim ->
          let mutated =
            Graph.create_exn ~name:(Graph.name g)
              ~nodes:
                (List.map
                   (fun (n : Graph.node) ->
                     if n.Graph.id = victim.Graph.id then
                       { n with Graph.kind = flip_kind n.Graph.kind }
                     else n)
                   nodes)
              ~edges:(Graph.edges g)
          in
          not (String.equal base (Fingerprint.graph mutated))
      in
      let edge_differs =
        match Graph.edges g with
        | [] -> true
        | dropped :: _ ->
          let mutated =
            Graph.create_exn ~name:(Graph.name g) ~nodes
              ~edges:(List.filter (fun e -> e <> dropped) (Graph.edges g))
          in
          not (String.equal base (Fingerprint.graph mutated))
      in
      kind_differs && edge_differs)

(* --- store -------------------------------------------------------------- *)

let key fp t p = { Store.fingerprint = fp; time_limit = t; power_limit = p }

let sample_summary =
  Store.Feasible
    {
      area = 194.;
      peak = 5.2;
      instances =
        [
          ( Module_spec.make_exn ~name:"ALU" ~ops:[ Op.Add; Op.Sub; Op.Comp ]
              ~area:97. ~latency:1 ~power:2.5,
            [ (1, 0); (2, 3) ] );
          ( Module_spec.make_exn ~name:"mult_ser" ~ops:[ Op.Mult ] ~area:103.
              ~latency:4 ~power:2.7,
            [ (3, 1) ] );
        ];
    }

let check_summary msg expected actual =
  match (expected, actual) with
  | Store.Infeasible a, Some (Store.Infeasible b) ->
    Alcotest.(check string) msg a b
  | Store.Feasible e, Some (Store.Feasible a) ->
    Alcotest.(check (float 0.)) (msg ^ " area") e.area a.area;
    Alcotest.(check (float 0.)) (msg ^ " peak") e.peak a.peak;
    Alcotest.(check int)
      (msg ^ " instances")
      (List.length e.instances) (List.length a.instances);
    List.iter2
      (fun (em, eops) (am, aops) ->
        Alcotest.(check bool) (msg ^ " spec") true (Module_spec.equal em am);
        Alcotest.(check (list (pair int int))) (msg ^ " ops") eops aops)
      e.instances a.instances
  | _, None -> Alcotest.fail (msg ^ ": unexpected miss")
  | _, Some _ -> Alcotest.fail (msg ^ ": feasibility mismatch")

let test_memory_roundtrip () =
  let store = Store.in_memory () in
  let k = key "abc" 17 10. in
  Alcotest.(check bool) "initial miss" true (Store.find store k = None);
  Store.add store k sample_summary;
  check_summary "feasible roundtrip" sample_summary (Store.find store k);
  Store.add store (key "abc" 17 infinity) (Store.Infeasible "no\nway");
  check_summary "infeasible roundtrip (reason with newline)"
    (Store.Infeasible "no\nway")
    (Store.find store (key "abc" 17 infinity));
  Alcotest.(check bool) "different T misses" true
    (Store.find store (key "abc" 18 10.) = None);
  Alcotest.(check bool) "different P misses" true
    (Store.find store (key "abc" 17 12.) = None);
  Alcotest.(check bool) "different fingerprint misses" true
    (Store.find store (key "abd" 17 10.) = None);
  let s = Store.stats store in
  Alcotest.(check int) "hits" 2 s.Store.hits;
  Alcotest.(check int) "misses" 4 s.Store.misses;
  Alcotest.(check int) "stores" 2 s.Store.stores;
  Alcotest.(check int) "all hits from memory tier" 2 s.Store.memory_hits;
  Alcotest.(check int) "no disk tier" 0 s.Store.disk_hits;
  Alcotest.(check int) "size" 2 (Store.size store)

(* A unique scratch path: temp_file guarantees uniqueness, the store
   creates the directory itself. *)
let fresh_dir () =
  let path = Filename.temp_file "pchls-cache-test" "" in
  Sys.remove path;
  path

let test_disk_roundtrip () =
  let dir = fresh_dir () in
  let store = Store.create ~dir () in
  let k = key "feedface" 12 25. in
  Store.add store k sample_summary;
  Store.add store (key "feedface" 12 5.) (Store.Infeasible "too tight");
  (* A *new* store over the same directory sees both entries. *)
  let reopened = Store.create ~dir () in
  check_summary "disk hit survives process boundary" sample_summary
    (Store.find reopened k);
  check_summary "infeasible survives too" (Store.Infeasible "too tight")
    (Store.find reopened (key "feedface" 12 5.));
  let s = Store.stats reopened in
  Alcotest.(check int) "both hits came from the disk tier" 2 s.Store.disk_hits;
  Alcotest.(check int) "no memory hits yet" 0 s.Store.memory_hits;
  (* Disk hits were promoted: the repeat lookup is a memory-tier hit. *)
  check_summary "promoted to memory" sample_summary (Store.find reopened k);
  let s = Store.stats reopened in
  Alcotest.(check int) "repeat hit is memory-tier" 1 s.Store.memory_hits;
  Alcotest.(check int) "disk hits unchanged" 2 s.Store.disk_hits;
  Alcotest.(check int) "total = memory + disk" s.Store.hits
    (s.Store.memory_hits + s.Store.disk_hits);
  let entries, bytes = Store.disk_usage ~dir in
  Alcotest.(check int) "2 entries on disk" 2 entries;
  Alcotest.(check bool) "non-empty files" true (bytes > 0);
  Store.clear reopened;
  Alcotest.(check int) "cleared memory" 0 (Store.size reopened);
  Alcotest.(check (pair int int)) "cleared disk" (0, 0) (Store.disk_usage ~dir);
  Alcotest.(check bool) "post-clear miss" true (Store.find reopened k = None)

(* Entries of an older format version live in a sibling [v<n>] directory
   no lookup reads; clearing the cache deletes them with the current ones
   and leaves anything else under the cache directory alone. *)
let test_clear_deletes_older_versions () =
  let dir = fresh_dir () in
  let store = Store.create ~dir () in
  Store.add store (key "beef" 9 50.) sample_summary;
  let put sub file =
    let d = Filename.concat dir sub in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    Out_channel.with_open_text (Filename.concat d file) (fun oc ->
        output_string oc "pchls-cache v1\n")
  in
  put "v1" "old.pchls-cache";
  put "v1" "old.pchls-cache.bad";
  put "keep" "other.pchls-cache";
  Store.clear store;
  Alcotest.(check (pair int int)) "current tier empty" (0, 0)
    (Store.disk_usage ~dir);
  Alcotest.(check bool) "older tier removed" false
    (Sys.file_exists (Filename.concat dir "v1"));
  Alcotest.(check bool) "non-tier directory untouched" true
    (Sys.file_exists (Filename.concat dir "keep/other.pchls-cache"))

let test_corrupt_and_stale_entries_skipped () =
  let dir = fresh_dir () in
  let store = Store.create ~dir () in
  let k = key "cafe" 9 50. in
  Store.add store k sample_summary;
  (* Corrupt every on-disk entry in place. *)
  (match Store.dir store with
  | None -> Alcotest.fail "disk tier expected"
  | Some disk ->
    Array.iter
      (fun f ->
        let path = Filename.concat disk f in
        let oc = open_out path in
        output_string oc "pchls-cache v0\ngarbage entry\n";
        close_out oc)
      (Sys.readdir disk));
  let reopened = Store.create ~dir () in
  Alcotest.(check bool) "stale version is a miss" true
    (Store.find reopened k = None);
  (* Storing again overwrites the corrupt entry and read-back works. *)
  Store.add reopened k sample_summary;
  let again = Store.create ~dir () in
  check_summary "overwritten entry parses" sample_summary (Store.find again k)

(* --- resilience: quarantine and degraded disk tier ---------------------- *)

module Fault = Pchls_resil.Fault

let with_chaos spec f =
  Fault.set (Some spec);
  Fun.protect ~finally:(fun () -> Fault.set None) f

let test_corrupt_entry_quarantined () =
  let dir = fresh_dir () in
  let store = Store.create ~dir () in
  let k = key "dead" 9 50. in
  Store.add store k sample_summary;
  let disk = Option.get (Store.dir store) in
  Array.iter
    (fun f ->
      let oc = open_out (Filename.concat disk f) in
      output_string oc "not a cache entry at all\n";
      close_out oc)
    (Sys.readdir disk);
  let reopened = Store.create ~dir () in
  Alcotest.(check bool) "corrupt entry misses" true
    (Store.find reopened k = None);
  let s = Store.stats reopened in
  Alcotest.(check int) "counted as corrupt" 1 s.Store.corrupt;
  Alcotest.(check bool) "not a disk failure" false s.Store.degraded;
  let bad, live =
    Array.to_list (Sys.readdir disk)
    |> List.partition (fun f -> Filename.check_suffix f ".bad")
  in
  Alcotest.(check int) "quarantined to *.bad" 1 (List.length bad);
  Alcotest.(check (list string)) "no live entry left" [] live;
  Alcotest.(check bool) "stats line shows it" true
    (let line = Format.asprintf "%a" Store.pp_stats s in
     String.length line > 0
     &&
     let rec contains i =
       i + 9 <= String.length line
       && (String.sub line i 9 = "corrupt=1" || contains (i + 1))
     in
     contains 0);
  (* The slot is writable again: a fresh add round-trips. *)
  Store.add reopened k sample_summary;
  check_summary "rewritten entry parses" sample_summary
    (Store.find (Store.create ~dir ()) k);
  (* Clearing takes the quarantined file along with the live entry. *)
  Store.clear reopened;
  Alcotest.(check (list string)) "tier directory empty after clear" []
    (Array.to_list (Sys.readdir disk))

let test_write_fault_degrades_to_cache_off () =
  let dir = fresh_dir () in
  let k = key "beef" 11 30. in
  with_chaos "cache.write" (fun () ->
      let store = Store.create ~dir () in
      Store.add store k sample_summary;
      let s = Store.stats store in
      Alcotest.(check bool) "degraded after write fault" true s.Store.degraded;
      (* The memory tier keeps the result: synthesis sees a hit, not an
         abort. *)
      check_summary "memory tier still serves" sample_summary
        (Store.find store k);
      Alcotest.(check (pair int int))
        "nothing reached the disk" (0, 0) (Store.disk_usage ~dir);
      (* Degradation is permanent for this store, even once the fault is
         gone. *)
      Fault.set None;
      Store.add store (key "beef" 11 5.) (Store.Infeasible "x");
      Alcotest.(check (pair int int))
        "disk tier stays off" (0, 0) (Store.disk_usage ~dir));
  (* A fresh store over the same directory starts healthy. *)
  let healthy = Store.create ~dir () in
  Store.add healthy k sample_summary;
  Alcotest.(check bool) "fresh store writes through" true
    (fst (Store.disk_usage ~dir) = 1);
  Alcotest.(check bool) "fresh store not degraded" false
    (Store.stats healthy).Store.degraded

let test_read_fault_degrades_to_cache_off () =
  let dir = fresh_dir () in
  let k = key "f00d" 13 40. in
  let writer = Store.create ~dir () in
  Store.add writer k sample_summary;
  with_chaos "cache.read" (fun () ->
      let store = Store.create ~dir () in
      Alcotest.(check bool) "disk hit lost, not fatal" true
        (Store.find store k = None);
      Alcotest.(check bool) "degraded" true (Store.stats store).Store.degraded;
      (* Misses fall back to engine-and-memory: adds and repeat finds keep
         working in memory. *)
      Store.add store k sample_summary;
      check_summary "memory round-trip" sample_summary (Store.find store k))

(* --- LRU-capped memory tier --------------------------------------------- *)

let test_lru_caps_memory_tier () =
  let store = Store.create ~mem_entries:2 () in
  Store.add store (key "aa" 1 1.) (Store.Infeasible "a");
  Store.add store (key "bb" 1 1.) (Store.Infeasible "b");
  Store.add store (key "cc" 1 1.) (Store.Infeasible "c");
  Alcotest.(check int) "resident set capped" 2 (Store.size store);
  Alcotest.(check bool) "oldest entry evicted" true
    (Store.find store (key "aa" 1 1.) = None);
  check_summary "newest survives" (Store.Infeasible "c")
    (Store.find store (key "cc" 1 1.));
  Alcotest.(check int) "eviction counted" 1 (Store.stats store).Store.evictions

let test_lru_access_refreshes_recency () =
  let store = Store.create ~mem_entries:2 () in
  Store.add store (key "aa" 1 1.) (Store.Infeasible "a");
  Store.add store (key "bb" 1 1.) (Store.Infeasible "b");
  (* Touch aa: bb becomes the least recently used entry. *)
  check_summary "touch aa" (Store.Infeasible "a")
    (Store.find store (key "aa" 1 1.));
  Store.add store (key "cc" 1 1.) (Store.Infeasible "c");
  check_summary "recently used entry kept" (Store.Infeasible "a")
    (Store.find store (key "aa" 1 1.));
  Alcotest.(check bool) "least recently used entry evicted" true
    (Store.find store (key "bb" 1 1.) = None)

let test_lru_eviction_keeps_disk_tier () =
  let dir = fresh_dir () in
  let store = Store.create ~dir ~mem_entries:1 () in
  Store.add store (key "aa" 1 1.) (Store.Infeasible "a");
  Store.add store (key "bb" 1 1.) (Store.Infeasible "b");
  Alcotest.(check int) "memory holds one" 1 (Store.size store);
  Alcotest.(check int) "disk holds both" 2 (fst (Store.disk_usage ~dir));
  (* The evicted key re-promotes from disk (evicting the other one). *)
  check_summary "evicted entry re-promotes from disk" (Store.Infeasible "a")
    (Store.find store (key "aa" 1 1.));
  let s = Store.stats store in
  Alcotest.(check int) "promotion was a disk hit" 1 s.Store.disk_hits;
  Alcotest.(check int) "memory still capped" 1 (Store.size store)

let test_lru_unbounded_by_default () =
  let store = Store.in_memory () in
  for i = 0 to 99 do
    Store.add store (key (Printf.sprintf "%04x" i) 1 1.) (Store.Infeasible "x")
  done;
  Alcotest.(check int) "no cap, no evictions" 100 (Store.size store);
  Alcotest.(check int) "zero evictions" 0 (Store.stats store).Store.evictions

(* A working set under the cap never evicts, so no eviction pops the
   stale recency pair each hit leaves behind: hits alone must not grow
   the store. *)
let test_lru_hits_under_cap_bounded () =
  let store = Store.create ~mem_entries:4096 () in
  let keys = Array.init 90 (fun i -> key (Printf.sprintf "%04x" i) 1 1.) in
  Array.iter (fun k -> Store.add store k (Store.Infeasible "x")) keys;
  let words () = Obj.reachable_words (Obj.repr store) in
  let before = words () in
  for i = 0 to 99_999 do
    ignore (Store.find store keys.(i mod 90))
  done;
  let after = words () in
  Alcotest.(check int) "every find hit" 100_000 (Store.stats store).Store.hits;
  Alcotest.(check bool)
    (Printf.sprintf "%d words after 100 000 hits, %d before" after before)
    true (after < 2 * before)

(* Random add/find scripts against a most-recent-first list model: every
   find must hit exactly when the model still holds the key. Small caps
   and long scripts make the queue compact many times. *)
let prop_lru_matches_model =
  QCheck.Test.make ~name:"eviction order == list model" ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size (Gen.int_range 0 300) (pair bool (int_bound 9))))
    (fun (cap, script) ->
      let store = Store.create ~mem_entries:cap () in
      let k i = key (Printf.sprintf "%04x" i) 1 1. in
      let model = ref [] in
      let use i = model := i :: List.filter (( <> ) i) !model in
      List.for_all
        (fun (is_add, i) ->
          if is_add then begin
            Store.add store (k i) (Store.Infeasible "x");
            use i;
            model := List.filteri (fun j _ -> j < cap) !model;
            true
          end
          else
            let expected = List.mem i !model in
            if expected then use i;
            (Store.find store (k i) <> None) = expected)
        script
      && Store.size store = List.length !model)

let test_lru_invalid_cap_rejected () =
  Alcotest.check_raises "mem_entries = 0"
    (Invalid_argument "Store.create: mem_entries must be >= 1, got 0")
    (fun () -> ignore (Store.create ~mem_entries:0 ()))

(* --- cached exploration ------------------------------------------------- *)

module B = Pchls_dfg.Benchmarks

let point_signature pt =
  Printf.sprintf "T=%d P<=%h %s" pt.Explore.time_limit pt.Explore.power_limit
    (match pt.Explore.result with
    | Explore.Feasible { area; peak; design } ->
      Printf.sprintf "area=%h peak=%h makespan=%d" area peak
        (Design.makespan design)
    | Explore.Infeasible reason -> "infeasible: " ^ reason
    | Explore.Pruned reason -> "pruned: " ^ reason
    | Explore.Failed reason -> "failed: " ^ reason)

let test_cached_sweep_identical_and_engine_free () =
  let times = [ 10; 17 ] and powers = [ 5.; 20.; 100. ] in
  let plain =
    Explore.sweep ~library:Library.default B.hal ~times ~powers
    |> List.map point_signature
  in
  let store = Store.in_memory () in
  let first =
    Explore.sweep ~cache:store ~library:Library.default B.hal ~times ~powers
    |> List.map point_signature
  in
  Alcotest.(check (list string)) "cached sweep == plain sweep" plain first;
  let cold = Store.stats store in
  Alcotest.(check int) "cold run: all misses" 6 cold.Store.misses;
  Alcotest.(check int) "cold run: no hits" 0 cold.Store.hits;
  Alcotest.(check int) "cold run: all stored" 6 cold.Store.stores;
  let second =
    Explore.sweep ~cache:store ~library:Library.default B.hal ~times ~powers
    |> List.map point_signature
  in
  Alcotest.(check (list string)) "warm sweep == plain sweep" plain second;
  let warm = Store.stats store in
  Alcotest.(check int) "warm run: 100% hits" (cold.Store.hits + 6)
    warm.Store.hits;
  (* Misses unchanged means the engine ran zero times on the warm sweep
     (the engine is only ever invoked on a miss). *)
  Alcotest.(check int) "warm run: zero engine invocations" cold.Store.misses
    warm.Store.misses;
  Alcotest.(check int) "warm run: nothing re-stored" cold.Store.stores
    warm.Store.stores

let test_cache_rebuilds_full_design () =
  let store = Store.in_memory () in
  let sweep () =
    Explore.sweep ~cache:store ~library:Library.default B.hal ~times:[ 17 ]
      ~powers:[ 10. ]
  in
  let fresh = sweep () and cached = sweep () in
  match (fresh, cached) with
  | ( [
        {
          Explore.result =
            Explore.Feasible { area = fa; peak = fpk; design = fd };
          _;
        };
      ],
      [
        {
          Explore.result =
            Explore.Feasible { area = ca; peak = cpk; design = cd };
          _;
        };
      ] ) ->
    Alcotest.(check (float 0.)) "area" fa ca;
    Alcotest.(check (float 0.)) "peak" fpk cpk;
    Alcotest.(check int) "instance count"
      (List.length (Design.instances fd))
      (List.length (Design.instances cd));
    Alcotest.(check (float 0.))
      "register+mux area identical" (Design.area fd).Design.total
      (Design.area cd).Design.total
  | _ -> Alcotest.fail "hal T=17 P<=10 should be feasible"

let test_cached_tighten_identical () =
  let plain =
    Explore.tighten ~library:Library.default B.hal ~time_limit:17
      ~power_limit:20.
  in
  let store = Store.in_memory () in
  let tighten () =
    Explore.tighten ~cache:store ~library:Library.default B.hal ~time_limit:17
      ~power_limit:20.
  in
  let first = tighten () in
  let cold = Store.stats store in
  let second = tighten () in
  let warm = Store.stats store in
  match (plain, first, second) with
  | Ok a, Ok b, Ok c ->
    Alcotest.(check (float 0.))
      "cached tighten == plain"
      (Design.area a).Design.total (Design.area b).Design.total;
    Alcotest.(check (float 0.))
      "warm tighten identical"
      (Design.area a).Design.total (Design.area c).Design.total;
    Alcotest.(check int) "warm ladder: zero engine invocations"
      cold.Store.misses warm.Store.misses
  | _ -> Alcotest.fail "hal T=17 P<=20 should be feasible"

let () =
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "id-invariant" `Quick
            test_graph_fingerprint_id_invariant;
          Alcotest.test_case "mutation-sensitive" `Quick
            test_graph_fingerprint_sensitive;
          Alcotest.test_case "deep symmetric chains" `Quick
            test_graph_fingerprint_deep_chain;
          Alcotest.test_case "alike chain cost" `Quick
            test_graph_fingerprint_alike_chain_cost;
          Alcotest.test_case "library order" `Quick
            test_library_fingerprint_order_sensitive;
          QCheck_alcotest.to_alcotest
            prop_fingerprint_invariant_under_renumbering;
          QCheck_alcotest.to_alcotest prop_fingerprint_distinguishes_mutations;
        ] );
      ( "store",
        [
          Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "clear deletes older versions" `Quick
            test_clear_deletes_older_versions;
          Alcotest.test_case "corrupt entry quarantined" `Quick
            test_corrupt_entry_quarantined;
          Alcotest.test_case "write fault degrades to cache-off" `Quick
            test_write_fault_degrades_to_cache_off;
          Alcotest.test_case "read fault degrades to cache-off" `Quick
            test_read_fault_degrades_to_cache_off;
          Alcotest.test_case "corrupt/stale skipped" `Quick
            test_corrupt_and_stale_entries_skipped;
        ] );
      ( "lru",
        [
          Alcotest.test_case "caps the memory tier" `Quick
            test_lru_caps_memory_tier;
          Alcotest.test_case "access refreshes recency" `Quick
            test_lru_access_refreshes_recency;
          Alcotest.test_case "eviction keeps the disk tier" `Quick
            test_lru_eviction_keeps_disk_tier;
          Alcotest.test_case "unbounded by default" `Quick
            test_lru_unbounded_by_default;
          Alcotest.test_case "invalid cap rejected" `Quick
            test_lru_invalid_cap_rejected;
          Alcotest.test_case "hits under the cap stay bounded" `Quick
            test_lru_hits_under_cap_bounded;
          QCheck_alcotest.to_alcotest prop_lru_matches_model;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "cached sweep identical, engine-free" `Quick
            test_cached_sweep_identical_and_engine_free;
          Alcotest.test_case "rebuilds full design" `Quick
            test_cache_rebuilds_full_design;
          Alcotest.test_case "cached tighten identical" `Quick
            test_cached_tighten_identical;
        ] );
    ]
