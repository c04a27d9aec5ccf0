module Graph = Pchls_dfg.Graph
module Int_set = Set.Make (Int)

type summary = { fu_mux_inputs : int; register_mux_inputs : int }

let total s = s.fu_mux_inputs + s.register_mux_inputs

let estimate g ~binding ~instance_ops ~register_of ~num_instances =
  let fu_mux = ref 0 in
  let writers : (int, Int_set.t) Hashtbl.t = Hashtbl.create 16 in
  let preds op = Graph.pred_indices g (Graph.index g op) in
  for i = 0 to num_instances - 1 do
    let ops = instance_ops i in
    let ports =
      List.fold_left (fun acc op -> max acc (Array.length (preds op))) 0 ops
    in
    let sources =
      List.fold_left
        (fun acc op ->
          Array.fold_left
            (fun acc p -> Int_set.add (register_of (Graph.node_at g p).Graph.id) acc)
            acc (preds op))
        Int_set.empty ops
    in
    fu_mux := !fu_mux + max 0 (Int_set.cardinal sources - ports);
    (* Record which registers this instance writes. *)
    List.iter
      (fun op ->
        if Graph.succ_indices g (Graph.index g op) <> [||] then begin
          let r = register_of op in
          let set =
            match Hashtbl.find_opt writers r with
            | Some s -> s
            | None -> Int_set.empty
          in
          Hashtbl.replace writers r (Int_set.add (binding op) set)
        end)
      ops
  done;
  let reg_mux =
    Hashtbl.fold (fun _ set acc -> acc + max 0 (Int_set.cardinal set - 1)) writers 0
  in
  { fu_mux_inputs = !fu_mux; register_mux_inputs = reg_mux }
