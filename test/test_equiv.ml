(* Equivalence suites pinning the hot-path rewrite to its naive
   reference semantics: the block-max profile against per-cycle rescans,
   the incremental compatibility graph against a from-scratch rebuild,
   and heap-ordered selection against a full sort. Each property drives
   the fast structure and a deliberately naive model through the same
   random operation sequence and requires identical answers. On random
   layered graphs, the graph fingerprint must tell apart exactly the
   pairs its 32-round predecessor does. The engine's own
   store-vs-enumeration cross-check runs via [~self_check:true] on random
   syntheses. *)

module H = Test_helpers
module Generator = Pchls_dfg.Generator
module Graph = Pchls_dfg.Graph
module Profile = Pchls_power.Profile
module Schedule = Pchls_sched.Schedule
module Bitset = Pchls_compat.Bitset
module Pqueue = Pchls_compat.Pqueue
module Cgraph = Pchls_compat.Cgraph
module Engine = Pchls_core.Engine
module Library = Pchls_fulib.Library
module Fingerprint = Pchls_cache.Fingerprint
module Op = Pchls_dfg.Op

let table1_info g id = H.table1_info () g id

(* --- Profile: block-max structure == naive per-cycle rescans ----------- *)

(* A profile state: horizon, the adds applied, and the subset of them
   later removed — exercising [remove]'s block rescans too. *)
let profile_gen =
  QCheck.Gen.(
    let* horizon = 1 -- 100 in
    let op =
      let* latency = 1 -- min 8 horizon in
      let* start = 0 -- (horizon - latency) in
      let* power = float_range 0. 10. in
      return (start, latency, power)
    in
    let* ops = list_size (0 -- 40) op in
    let* removed = list (map (fun b -> b) bool) in
    return (horizon, ops, removed))

let build_both (horizon, ops, removed) =
  let p = Profile.create ~horizon in
  let a = Array.make horizon 0. in
  List.iter
    (fun (start, latency, power) ->
      Profile.add p ~start ~latency ~power;
      for c = start to start + latency - 1 do
        a.(c) <- a.(c) +. power
      done)
    ops;
  List.iteri
    (fun i (start, latency, power) ->
      if List.nth_opt removed i = Some true then begin
        Profile.remove p ~start ~latency ~power;
        for c = start to start + latency - 1 do
          (* Mirror Profile.remove's eps-clamp so float residue from a
             matched add/remove pair cancels in both models. *)
          let v = a.(c) -. power in
          a.(c) <- (if Float.abs v < Profile.eps then 0. else v)
        done
      end)
    ops;
  (p, a)

let naive_fits a ~start ~latency ~power ~limit =
  let h = Array.length a in
  start >= 0
  && start + latency <= h
  &&
  let ok = ref true in
  for c = start to start + latency - 1 do
    if a.(c) +. power > limit +. Profile.eps then ok := false
  done;
  !ok

let naive_first_fit a ~start ~latency ~power ~limit =
  let h = Array.length a in
  let rec go s =
    if s + latency > h then None
    else if naive_fits a ~start:s ~latency ~power ~limit then Some s
    else go (s + 1)
  in
  go start

let print_profile_state (horizon, ops, removed) =
  Format.asprintf "horizon=%d ops=[%s] removed=[%s]" horizon
    (String.concat "; "
       (List.map
          (fun (s, l, p) -> Printf.sprintf "(%d,%d,%.3f)" s l p)
          ops))
    (String.concat ";" (List.map string_of_bool removed))

let prop_profile_cells =
  QCheck.Test.make ~name:"profile cells == naive array" ~count:300
    (QCheck.make profile_gen ~print:print_profile_state)
    (fun state ->
      let p, a = build_both state in
      Array.for_all2
        (fun x y -> Float.abs (x -. y) <= 1e-6)
        (Profile.to_array p) a)

let prop_profile_aggregates =
  QCheck.Test.make ~name:"profile peak/busy/energy == naive" ~count:300
    (QCheck.make profile_gen ~print:print_profile_state)
    (fun state ->
      let p, a = build_both state in
      let naive_peak = Array.fold_left Float.max 0. a in
      let naive_busy = ref 0 in
      Array.iteri
        (fun c x -> if x > Profile.eps then naive_busy := c + 1)
        a;
      let naive_energy = Array.fold_left ( +. ) 0. a in
      Float.abs (Profile.peak p -. naive_peak) <= 1e-6
      && Profile.busy_length p = !naive_busy
      && Float.abs (Profile.energy p -. naive_energy) <= 1e-6)

let query_gen =
  QCheck.Gen.(
    let* state = profile_gen in
    let horizon, _, _ = state in
    let* start = 0 -- horizon in
    let* latency = 1 -- 10 in
    let* power = float_range 0. 10. in
    let* limit = float_range 0. 25. in
    return (state, start, latency, power, limit))

let prop_profile_fits =
  QCheck.Test.make ~name:"profile fits == naive rescan" ~count:500
    (QCheck.make query_gen ~print:(fun (state, s, l, pw, lim) ->
         Printf.sprintf "%s query=(%d,%d,%.3f,%.3f)"
           (print_profile_state state) s l pw lim))
    (fun (state, start, latency, power, limit) ->
      let p, a = build_both state in
      Profile.fits p ~start ~latency ~power ~limit
      = naive_fits a ~start ~latency ~power ~limit)

let prop_profile_first_fit =
  QCheck.Test.make ~name:"profile first_fit == naive scan" ~count:500
    (QCheck.make query_gen ~print:(fun (state, s, l, pw, lim) ->
         Printf.sprintf "%s query=(%d,%d,%.3f,%.3f)"
           (print_profile_state state) s l pw lim))
    (fun (state, start, latency, power, limit) ->
      let p, a = build_both state in
      Profile.first_fit p ~start ~latency ~power ~limit
      = naive_first_fit a ~start ~latency ~power ~limit)

(* --- Cgraph: incremental edits == full rebuild ------------------------- *)

(* Random add scripts over a small vertex set, weights replaced on repeat
   pairs. The model replays the same script into a plain association table
   and the final graphs must agree edge-for-edge. *)
let cgraph_gen =
  QCheck.Gen.(
    let* n = 2 -- 24 in
    let edit =
      let* u = 0 -- (n - 1) in
      let* v = 0 -- (n - 1) in
      let* w = float_range (-2.) 5. in
      return (u, (if v = u then (u + 1) mod n else v), w)
    in
    let* edits = list_size (0 -- 80) edit in
    return (n, edits))

let print_cgraph_case (n, edits) =
  Format.asprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map (fun (u, v, w) -> Printf.sprintf "add %d-%d %.3f" u v w) edits))

let prop_cgraph_incremental =
  QCheck.Test.make ~name:"cgraph edits == full rebuild" ~count:300
    (QCheck.make cgraph_gen ~print:print_cgraph_case)
    (fun (n, edits) ->
      let g = Cgraph.create ~n in
      let model : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
      let key u v = if u < v then (u, v) else (v, u) in
      List.iter
        (fun (u, v, w) ->
          Cgraph.add_edge g u v w;
          Hashtbl.replace model (key u v) w)
        edits;
      let rebuilt = Cgraph.create ~n in
      Hashtbl.iter (fun (u, v) w -> Cgraph.add_edge rebuilt u v w) model;
      Cgraph.edges g = Cgraph.edges rebuilt
      && Cgraph.edge_count g = Cgraph.edge_count rebuilt
      && List.for_all
           (fun u -> Cgraph.neighbours g u = Cgraph.neighbours rebuilt u)
           (List.init n Fun.id))

(* --- Bitset: set algebra == Stdlib.Set ---------------------------------- *)

let bitset_gen =
  QCheck.Gen.(
    let* n = 1 -- 200 in
    let* adds = list_size (0 -- 100) (0 -- (n - 1)) in
    return (n, adds))

module Int_set = Set.Make (Int)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset == Set.Make(Int)" ~count:300
    (QCheck.make bitset_gen ~print:(fun (n, adds) ->
         Printf.sprintf "n=%d adds=%s" n
           (String.concat "," (List.map string_of_int adds))))
    (fun (n, adds) ->
      let b = Bitset.create n in
      let m = ref Int_set.empty in
      List.iter
        (fun x ->
          Bitset.add b x;
          m := Int_set.add x !m)
        adds;
      Bitset.to_list b = Int_set.elements !m
      && Bitset.cardinal b = Int_set.cardinal !m
      && Bitset.is_empty b = Int_set.is_empty !m
      && List.for_all
           (fun x -> Bitset.mem b x = Int_set.mem x !m)
           (List.init n Fun.id))

(* --- Pqueue: heap pop order == full sort -------------------------------- *)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drain == List.sort" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_bound 200) small_int)
    (fun xs ->
      let q = Pqueue.of_list ~cmp:Int.compare xs in
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* Interleaved adds and pops against a sorted-list model: every prefix of
   the pop sequence must match, not just the final drain. *)
let prop_pqueue_interleaved =
  QCheck.Test.make ~name:"pqueue interleaved add/pop == sorted model"
    ~count:300
    QCheck.(list (pair bool small_int))
    (fun script ->
      let q = Pqueue.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (fun (is_pop, x) ->
          if is_pop then
            match (Pqueue.pop q, !model) with
            | None, [] -> true
            | Some a, b :: rest ->
              model := rest;
              a = b
            | None, _ :: _ | Some _, [] -> false
          else begin
            Pqueue.add q x;
            model := List.sort Int.compare (x :: !model);
            true
          end)
        script)

(* --- Fingerprint: stable refinement == the 32-round reference ----------- *)

(* The fingerprint the stable refinement replaced, kept verbatim. Its
   digests differ from the new ones; what must agree is which graphs the
   two tell apart. *)
module Reference_fingerprint = struct
  module Int_map = Map.Make (Int)

  let of_string = Fingerprint.of_string

  (* Weisfeiler-Lehman label refinement. Node ids are used only as map keys,
     never as label content, so the result is invariant under renumbering.
     Enough rounds to propagate position information along chains of
     identically-labelled nodes; capped so huge graphs stay cheap (beyond the
     cap, only nodes further than [max_rounds] hops from any distinguishing
     feature could alias — collisions, not false splits). *)
  let max_rounds = 32

  let graph g =
    let ids = Graph.node_ids g in
    let initial =
      List.fold_left
        (fun m id ->
          let n = Graph.node g id in
          Int_map.add id
            (of_string
               (Printf.sprintf "n:%s:%s" (Op.to_string n.Graph.kind) n.Graph.name))
            m)
        Int_map.empty ids
    in
    let refine labels =
      List.fold_left
        (fun m id ->
          let around neighbours =
            List.map (fun j -> Int_map.find j labels) (neighbours g id)
            |> List.sort String.compare
            |> String.concat ","
          in
          Int_map.add id
            (of_string
               (Int_map.find id labels ^ "|p:" ^ around Graph.preds ^ "|s:"
              ^ around Graph.succs))
            m)
        Int_map.empty ids
    in
    let rec iterate n labels =
      if n = 0 then labels else iterate (n - 1) (refine labels)
    in
    let final = iterate (min (Graph.node_count g) max_rounds) initial in
    let node_sigs =
      List.map (fun id -> Int_map.find id final) ids |> List.sort String.compare
    in
    let edge_sigs =
      Graph.edges g
      |> List.map (fun (a, b) ->
             Int_map.find a final ^ ">" ^ Int_map.find b final)
      |> List.sort String.compare
    in
    of_string
      (String.concat "\n"
         (Printf.sprintf "g:%s" (Graph.name g)
         :: Printf.sprintf "n=%d;e=%d" (Graph.node_count g) (Graph.edge_count g)
         :: (node_sigs @ edge_sigs)))
end

(* A layered graph, optionally with every node named alike so refinement
   has to split classes, and its variants: the ids permuted, one kind
   flipped, one edge dropped, one edge moved, one node renamed and the
   graph renamed. *)
let fingerprint_variants_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* layers = 1 -- 5 in
    let* width = 1 -- 4 in
    let* anonymous = bool in
    let g = Generator.layered ~seed ~layers ~width () in
    let g =
      if anonymous then
        Graph.create_exn ~name:(Graph.name g)
          ~nodes:
            (List.map
               (fun (v : Graph.node) -> { v with Graph.name = "v" })
               (Graph.nodes g))
          ~edges:(Graph.edges g)
      else g
    in
    let nodes = Graph.nodes g and edges = Graph.edges g in
    let rebuild ?(name = Graph.name g) ?(edges = edges) f =
      Graph.create_exn ~name ~nodes:(List.map f nodes) ~edges
    in
    let first_op =
      List.find (fun (v : Graph.node) -> not (Op.is_transfer v.Graph.kind)) nodes
    in
    let flip (v : Graph.node) =
      if v.Graph.id <> first_op.Graph.id then v
      else
        let kind = if v.Graph.kind = Op.Add then Op.Sub else Op.Add in
        { v with Graph.kind }
    in
    let rename (v : Graph.node) =
      if v.Graph.id <> first_op.Graph.id then v
      else { v with Graph.name = v.Graph.name ^ "'" }
    in
    (* The first edge re-pointed at another node of its target's kind,
       where that leaves a DAG: counts, kinds and names stay, so only
       refinement can tell the two apart. *)
    let moved =
      match edges with
      | [] -> g
      | (a, b) :: rest ->
        let kind = (Graph.node g b).Graph.kind in
        List.find_map
          (fun (v : Graph.node) ->
            if v.Graph.kind <> kind || v.Graph.id = b then None
            else
              Result.to_option
                (Graph.create ~name:(Graph.name g) ~nodes
                   ~edges:((a, v.Graph.id) :: rest)))
          nodes
        |> Option.value ~default:g
    in
    return
      [
        g;
        H.permute_ids ~seed g;
        rebuild flip;
        rebuild ~edges:(List.tl edges) Fun.id;
        moved;
        rebuild rename;
        rebuild ~name:(Graph.name g ^ "'") Fun.id;
      ])

let prop_fingerprint_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"Fingerprint.graph splits pairs exactly as the 32-round reference"
    (QCheck.make fingerprint_variants_gen ~print:(fun gs ->
         Format.asprintf "%a" Graph.pp (List.hd gs)))
    (fun gs ->
      let fresh = List.map Fingerprint.graph gs in
      let reference = List.map Reference_fingerprint.graph gs in
      List.for_all2
        (fun f r ->
          List.for_all2
            (fun f' r' -> String.equal f f' = String.equal r r')
            fresh reference)
        fresh reference)

(* --- Engine: store-driven pick == full enumeration --------------------- *)

(* [~self_check:true] re-derives every iteration's candidate pick by full
   enumeration and sort, and aborts the run as Infeasible with a
   "self-check" reason on any divergence from the gain-ordered store —
   so the property is simply that no such reason ever surfaces. *)
let engine_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* layers = 1 -- 5 in
    let* width = 1 -- 4 in
    let* power = oneofl [ 10.; 15.; 25. ] in
    return (Generator.layered ~seed ~layers ~width (), power))

let prop_engine_store_matches_enumeration =
  QCheck.Test.make
    ~name:"engine store pick == full enumeration (self-check)" ~count:60
    (QCheck.make engine_case_gen ~print:(fun (g, power) ->
         Format.asprintf "%a P<=%g" Graph.pp g power))
    (fun (g, power) ->
      let info = table1_info g in
      let latency id = (info id).Schedule.latency in
      let time_limit = max 1 (Graph.critical_path g ~latency * 2) in
      match
        Engine.run ~self_check:true ~library:Library.default ~time_limit
          ~power_limit:power g
      with
      | Engine.Synthesized _ -> true
      | Engine.Infeasible { reason } ->
        (* Genuine infeasibility is fine; a self-check diagnostic is the
           equivalence violation this suite exists to catch. *)
        not
          (String.length reason >= 10
          && String.sub reason 0 10 = "self-check"))

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "equiv"
    [
      ( "profile",
        List.map to_alcotest
          [
            prop_profile_cells;
            prop_profile_aggregates;
            prop_profile_fits;
            prop_profile_first_fit;
          ] );
      ( "cgraph",
        List.map to_alcotest [ prop_cgraph_incremental; prop_bitset_model ] );
      ( "pqueue",
        List.map to_alcotest [ prop_pqueue_sorts; prop_pqueue_interleaved ] );
      ( "fprint",
        List.map to_alcotest [ prop_fingerprint_matches_reference ] );
      ( "engine",
        List.map to_alcotest [ prop_engine_store_matches_enumeration ] );
    ]
