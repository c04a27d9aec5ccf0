(* Span summary over a trace: count, total and self time per span name.

   Self time is a span's duration minus the part covered by the child spans
   it encloses on the same tid (the recording domain). Spans from the serve
   daemon's handler threads share a domain and may overlap without
   nesting; such a span is nobody's child. *)

module Event = Pchls_obs.Event

type span = {
  name : string;
  tid : int;
  start : int64;
  stop : int64;
  dur : int64;
  mutable child_ns : int64;  (** time covered by direct children *)
  mutable children : string list;  (** names of direct children *)
}

let self_ns s = Int64.sub s.dur s.child_ns

let of_events events =
  let spans =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.phase with
        | Event.Complete { dur_ns } ->
          Some
            {
              name = e.Event.name;
              tid = e.Event.tid;
              start = e.Event.ts_ns;
              stop = Int64.add e.Event.ts_ns dur_ns;
              dur = dur_ns;
              child_ns = 0L;
              children = [];
            }
        | Event.Instant -> None)
      events
    |> List.stable_sort (fun a b ->
           compare (a.tid, a.start, Int64.neg a.dur) (b.tid, b.start, Int64.neg b.dur))
  in
  let rec drop_ended start = function
    | top :: rest when top.stop <= start -> drop_ended start rest
    | stack -> stack
  in
  ignore
    (List.fold_left
       (fun (tid, stack) s ->
         let stack = if s.tid = tid then drop_ended s.start stack else [] in
         (match stack with
         | top :: _ when s.stop <= top.stop ->
           top.child_ns <- Int64.add top.child_ns s.dur;
           top.children <- s.name :: top.children
         | _ -> ());
         (s.tid, s :: stack))
       (min_int, []) spans);
  spans

type stat = { count : int; total_s : float; self_s : float }

let zero = { count = 0; total_s = 0.; self_s = 0. }

let summarize spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let st = Option.value (Hashtbl.find_opt tbl s.name) ~default:zero in
      Hashtbl.replace tbl s.name
        {
          count = st.count + 1;
          total_s = st.total_s +. (Int64.to_float s.dur /. 1e9);
          self_s = st.self_s +. (Int64.to_float (self_ns s) /. 1e9);
        })
    spans;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:zero

(* Durations (ns) of every span named [name]. *)
let durations spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (Int64.to_float s.dur) else None)
    spans
