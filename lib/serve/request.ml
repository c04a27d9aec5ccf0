module Graph = Pchls_dfg.Graph
module Benchmarks = Pchls_dfg.Benchmarks
module Engine = Pchls_core.Engine
module Budget = Pchls_resil.Budget

type source =
  | Benchmark of string
  | Dfg of { origin : string; text : string }
  | Beh of { origin : string; name : string; text : string }

let benchmark name =
  match Benchmarks.find name with
  | Some g -> Ok (name, g)
  | None ->
    Error
      (Printf.sprintf "unknown benchmark %S (try: %s)" name
         (String.concat ", " (List.map fst Benchmarks.all)))

let graph ~missing ~conflict = function
  | [] -> Error missing
  | _ :: _ :: _ -> Error conflict
  | [ Benchmark name ] -> benchmark name
  | [ Dfg { origin; text } ] -> (
    match Pchls_dfg.Text_format.of_string text with
    | Ok g -> Ok (Graph.name g, g)
    | Error msg -> Error (Printf.sprintf "%s: %s" origin msg))
  | [ Beh { origin; name; text } ] -> (
    match Pchls_lang.Elaborate.compile ~name text with
    | Ok { Pchls_lang.Elaborate.graph; _ } -> Ok (name, graph)
    | Error msg -> Error (Printf.sprintf "%s: %s" origin msg))

let time_limit t =
  if t >= 1 then Ok t else Error (Printf.sprintf "must be >= 1, got %d" t)

(* Written so that NaN is refused too. *)
let power_limit p =
  if p > 0. then Ok p else Error (Printf.sprintf "must be > 0, got %g" p)

let power_range ~names:(from_name, step_name) ~from ~upto ~step =
  if not (from > 0. && step > 0.) then
    Error (Printf.sprintf "%s and %s must be > 0" from_name step_name)
  else if not (Float.is_finite upto) then
    Error (Printf.sprintf "power range end must be finite, got %g" upto)
  else
    let rec range p = if p > upto +. 1e-9 then [] else p :: range (p +. step) in
    match range from with
    | [] -> Error (Printf.sprintf "empty power range [%g, %g]" from upto)
    | ps -> Ok ps

let policies =
  List.map
    (fun p -> (Engine.policy_to_string p, p))
    [ Engine.Min_power; Engine.Min_area; Engine.Min_latency ]

let policy name =
  match List.assoc_opt name policies with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown policy %S (%s)" name
         (String.concat ", " (List.map fst policies)))

let deadline_ms ms = if ms >= 0. then Ok ms else Error "must be >= 0"
let max_iters n = if n >= 0 then Ok n else Error "must be >= 0"

type budget = { deadline_ms : float option; max_iters : int option }

(* The tighter of two optional deadlines. *)
let tighter a b =
  match (a, b) with
  | Some x, Some y -> Some (Float.min x y)
  | Some _, None -> a
  | None, _ -> b

let budget ?ceiling_ms ?deadline_ms ?max_iters () =
  { deadline_ms = tighter deadline_ms ceiling_ms; max_iters }

let signature b =
  Printf.sprintf "dl=%s,mi=%s"
    (match b.deadline_ms with Some d -> string_of_float d | None -> "-")
    (match b.max_iters with Some i -> string_of_int i | None -> "-")

let start ?clamp_ms b =
  match (tighter b.deadline_ms clamp_ms, b.max_iters) with
  | None, None -> None
  | deadline_ms, max_iters -> Some (Budget.make ?deadline_ms ?max_iters ())
