module Graph = Pchls_dfg.Graph
module Profile = Pchls_power.Profile
module Int_map = Map.Make (Int)

type op_info = { latency : int; power : float }
type t = int Int_map.t

type violation =
  | Unscheduled of int
  | Negative_start of int
  | Precedence of { pred : int; succ : int }
  | Latency_exceeded of { makespan : int; limit : int }
  | Power_exceeded of { cycle : int; power : float; limit : float }

let empty = Int_map.empty
let of_alist l = List.fold_left (fun m (k, v) -> Int_map.add k v m) empty l
let set s id t = Int_map.add id t s
let mem s id = Int_map.mem id s
let find s id = Int_map.find_opt id s

let start s id =
  match find s id with Some t -> t | None -> raise Not_found

let cardinal s = Int_map.cardinal s
let bindings s = Int_map.bindings s
let finish s ~info id = start s id + (info id).latency

let makespan s ~info =
  Int_map.fold (fun id t acc -> max acc (t + (info id).latency)) s 0

let profile s ~info ~horizon =
  let p = Profile.create ~horizon in
  Int_map.iter
    (fun id t ->
      let { latency; power } = info id in
      Profile.add p ~start:t ~latency ~power)
    s;
  p

(* Makespan over the nodes of [g] only, so a stray schedule entry never has
   its [info] consulted. *)
let graph_makespan g s ~info =
  List.fold_left
    (fun acc id ->
      match find s id with
      | Some t -> max acc (t + (info id).latency)
      | None -> acc)
    0 (Graph.node_ids g)

let violations g s ~info ?time_limit ?power_limit () =
  let violations = ref [] in
  let push v = violations := v :: !violations in
  List.iter
    (fun id ->
      match find s id with
      | None -> push (Unscheduled id)
      | Some t -> if t < 0 then push (Negative_start id))
    (Graph.node_ids g);
  List.iter
    (fun (pred, succ) ->
      match (find s pred, find s succ) with
      | Some tp, Some ts ->
        if tp + (info pred).latency > ts then push (Precedence { pred; succ })
      | None, _ | _, None -> ())
    (Graph.edges g);
  let ms = graph_makespan g s ~info in
  (match time_limit with
  | Some limit when ms > limit -> push (Latency_exceeded { makespan = ms; limit })
  | Some _ | None -> ());
  (match power_limit with
  | Some limit ->
    let p = Profile.create ~horizon:(max ms 1) in
    List.iter
      (fun id ->
        match find s id with
        | Some t when t >= 0 ->
          let { latency; power } = info id in
          if t + latency <= max ms 1 then Profile.add p ~start:t ~latency ~power
        | Some _ | None -> ())
      (Graph.node_ids g);
    Array.iteri
      (fun cycle power ->
        if power > limit +. Profile.eps then
          push (Power_exceeded { cycle; power; limit }))
      (Profile.to_array p)
  | None -> ());
  List.rev !violations

let diag_of_violation v =
  let open Pchls_diag.Diag in
  match v with
  | Unscheduled id ->
    errorf ~code:"SCH001" ~layer:Schedule ~entity:(Node id)
      "node %d has no start time" id
  | Negative_start id ->
    errorf ~code:"SCH002" ~layer:Schedule ~entity:(Node id)
      "node %d starts before cycle 0" id
  | Precedence { pred; succ } ->
    errorf ~code:"SCH003" ~layer:Schedule ~entity:(Edge (pred, succ))
      "node %d starts before predecessor %d finishes" succ pred
  | Latency_exceeded { makespan; limit } ->
    errorf ~code:"SCH004" ~layer:Schedule ~entity:Design
      "makespan %d exceeds time constraint %d" makespan limit
  | Power_exceeded { cycle; power; limit } ->
    errorf ~code:"SCH005" ~layer:Schedule ~entity:(Step cycle)
      "cycle %d draws %.3f > power constraint %.3f" cycle power limit

let lint g s ~info ?time_limit ?power_limit () =
  let open Pchls_diag.Diag in
  let bad_latency =
    List.filter_map
      (fun id ->
        let { latency; _ } = info id in
        if latency < 1 then
          Some
            (errorf ~code:"SCH006" ~layer:Schedule ~entity:(Node id)
               "op_info reports latency %d for node %d (must be >= 1)" latency
               id)
        else None)
      (Graph.node_ids g)
  in
  let stray =
    List.filter_map
      (fun (id, t) ->
        if Graph.mem g id then None
        else
          Some
            (warningf ~code:"SCH007" ~layer:Schedule ~entity:(Node id)
               "schedule holds start %d for node %d, which is not in graph %s"
               t id (Graph.name g)))
      (bindings s)
  in
  (* A non-positive latency poisons the power profile; report it alone and
     skip the per-cycle check rather than crash on it. *)
  let power_limit = if bad_latency = [] then power_limit else None in
  let vs = violations g s ~info ?time_limit ?power_limit () in
  sort (bad_latency @ stray @ List.map diag_of_violation vs)

let validate g s ~info ?time_limit ?power_limit () =
  let ds = lint g s ~info ?time_limit ?power_limit () in
  if Pchls_diag.Diag.has_errors ds then Error ds else Ok ()

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  Int_map.iter (fun id t -> Format.fprintf ppf "%3d @@ %d@," id t) s;
  Format.fprintf ppf "@]"
