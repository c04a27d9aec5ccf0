(* Shared fixtures for the test suites. *)

module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Schedule = Pchls_sched.Schedule
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec

(* Uniform single-cycle operations drawing [power] each. *)
let uniform_info ?(latency = 1) ?(power = 1.) () _ = { Schedule.latency; power }

(* Scheduling view backed by the paper's Table 1 under a selection policy. *)
let table1_info ?(select = Library.min_power) () g id =
  match select Library.default (Graph.kind g id) with
  | Some m -> { Schedule.latency = m.Module_spec.latency; power = m.Module_spec.power }
  | None -> Alcotest.fail "table1_info: kind not covered"

(* Per-node (latency, power) drawn at random: a latency of 1-6 cycles and
   one of five powers. A graph of a few dozen nodes then has many
   distinct (latency, power) pairs, several of them shared by a few
   nodes. *)
let random_specs g =
  QCheck.Gen.(
    flatten_l
      (List.map
         (fun id ->
           let* latency = 1 -- 6 in
           let* power = oneofl [ 0.2; 1.7; 2.5; 2.7; 8.1 ] in
           return (id, latency, power))
         (Graph.node_ids g)))

(* The scheduling view of a [random_specs] draw. *)
let spec_info specs =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (id, latency, power) ->
      Hashtbl.replace table id { Schedule.latency; power })
    specs;
  fun id -> Hashtbl.find table id

(* in -> a -> o chain. *)
let chain3 () =
  Graph.create_exn ~name:"chain3"
    ~nodes:
      [
        { Graph.id = 0; name = "i"; kind = Op.Input };
        { Graph.id = 1; name = "a"; kind = Op.Add };
        { Graph.id = 2; name = "o"; kind = Op.Output };
      ]
    ~edges:[ (0, 1); (1, 2) ]

(* Four independent adds fed by one input, merged into one output:
   a fork-join that loves to spike power. *)
let fork4 () =
  let b = Pchls_dfg.Builder.create "fork4" in
  let x = Pchls_dfg.Builder.input b "x" in
  let adds =
    List.init 4 (fun i -> Pchls_dfg.Builder.add b (Printf.sprintf "a%d" i) x x)
  in
  let rec tree = function
    | [ v ] -> v
    | v1 :: v2 :: rest ->
      tree (rest @ [ Pchls_dfg.Builder.add b "t" v1 v2 ])
    | [] -> Alcotest.fail "fork4"
  in
  let y = tree adds in
  ignore (Pchls_dfg.Builder.output b "y" y);
  Pchls_dfg.Builder.finish_exn b

(* Two parallel chains sharing input and output; good for sharing tests. *)
let two_chains () =
  let b = Pchls_dfg.Builder.create "two_chains" in
  let x = Pchls_dfg.Builder.input b "x" in
  let a1 = Pchls_dfg.Builder.add b "a1" x x in
  let a2 = Pchls_dfg.Builder.add b "a2" a1 x in
  let s1 = Pchls_dfg.Builder.sub b "s1" x x in
  let s2 = Pchls_dfg.Builder.sub b "s2" s1 x in
  let m = Pchls_dfg.Builder.mult b "m" a2 s2 in
  ignore (Pchls_dfg.Builder.output b "y" m);
  Pchls_dfg.Builder.finish_exn b

let check_precedences g sched ~info =
  List.iter
    (fun (p, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %d->%d respected" p s)
        true
        (Schedule.start sched p + (info p).Schedule.latency
         <= Schedule.start sched s))
    (Graph.edges g)

let check_total g sched =
  Alcotest.(check int) "schedule is total" (Graph.node_count g)
    (Schedule.cardinal sched)

(* [g] with its node ids shuffled and spread out: same structure, kinds and
   names, fresh non-contiguous ids. *)
let permute_ids ~seed g =
  let rng = Random.State.make [| seed; 0xbeef |] in
  let ids = Array.of_list (Graph.node_ids g) in
  let shuffled = Array.copy ids in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- t
  done;
  (* Old id -> fresh non-contiguous id, so renumbering is not a no-op. *)
  let map = Hashtbl.create 16 in
  Array.iteri (fun i _ -> Hashtbl.replace map shuffled.(i) ((i * 7) + 3)) ids;
  let tr id = Hashtbl.find map id in
  Graph.create_exn ~name:(Graph.name g)
    ~nodes:
      (List.map
         (fun (n : Graph.node) -> { n with Graph.id = tr n.Graph.id })
         (Graph.nodes g))
    ~edges:(List.map (fun (a, b) -> (tr a, tr b)) (Graph.edges g))

(* A directed chain of [n] Adds that all share the name "n", with a Mult at
   [mult_at] if given: every node looks alike until refinement reaches the
   chain's ends. *)
let alike_chain ?(mult_at = -1) n =
  Graph.create_exn ~name:"chain"
    ~nodes:
      (List.init n (fun i ->
           {
             Graph.id = i;
             name = "n";
             kind = (if i = mult_at then Op.Mult else Op.Add);
           }))
    ~edges:(List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))
