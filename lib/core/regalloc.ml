module Graph = Pchls_dfg.Graph
module Schedule = Pchls_sched.Schedule
module Int_tbl = Hashtbl.Make (Int)

type lifetime = { node : int; birth : int; death : int }

let lifetimes g s ~info =
  let id i = (Graph.node_at g i).Graph.id in
  List.filter_map
    (fun i ->
      match Graph.succ_indices g i with
      | [||] -> None
      | succs ->
        let node = id i in
        let birth = Schedule.start s node + (info node).Schedule.latency in
        let death =
          Array.fold_left
            (fun acc j -> max acc (Schedule.start s (id j)))
            birth succs
        in
        Some { node; birth; death })
    (List.init (Graph.node_count g) Fun.id)

let overlap a b = a.birth <= b.death && b.birth <= a.death

(* Classical left-edge: scan values by increasing birth and drop each one
   into the first register whose last value died before this one is born. *)
let left_edge lifetimes =
  let sorted =
    List.sort
      (fun a b ->
        if a.birth <> b.birth then Int.compare a.birth b.birth
        else Int.compare a.node b.node)
      lifetimes
  in
  let registers : (int * int list) list ref = ref [] in
  (* each register: (death of last value, producers in reverse) *)
  List.iter
    (fun lt ->
      let rec place before = function
        | (death, nodes) :: after when death < lt.birth ->
          registers := List.rev_append before ((lt.death, lt.node :: nodes) :: after)
        | r :: after -> place (r :: before) after
        | [] -> registers := List.rev ((lt.death, [ lt.node ]) :: before)
      in
      place [] !registers)
    sorted;
  Array.of_list (List.map (fun (_, nodes) -> List.rev nodes) !registers)

(* The table is built once per partial application. Registers are
   entered last to first, so a node listed twice keeps the first. *)
let register_of allocation =
  let table = Int_tbl.create 64 in
  for r = Array.length allocation - 1 downto 0 do
    List.iter (fun node -> Int_tbl.replace table node r) allocation.(r)
  done;
  Int_tbl.find table
