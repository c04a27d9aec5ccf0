type phase = Complete of { dur_ns : int64 } | Instant

type t = {
  name : string;
  cat : string;
  phase : phase;
  ts_ns : int64;
  tid : int;
  args : (string * string) list;
}

let end_ns ev =
  match ev.phase with
  | Complete { dur_ns } -> Int64.add ev.ts_ns dur_ns
  | Instant -> ev.ts_ns

(* Spans are recorded when they *finish*, so raw lists are in completion
   order; sort by start time, longer spans first on ties, so a parent
   always precedes the children it encloses. *)
let sort evs =
  List.stable_sort
    (fun a b ->
      let c = Int64.compare a.ts_ns b.ts_ns in
      if c <> 0 then c else Int64.compare (end_ns b) (end_ns a))
    evs

(* --- Chrome trace_event JSON ------------------------------------------- *)

let us ns = Json.Number (Int64.to_float ns /. 1e3)

let to_json ev =
  let phase =
    match ev.phase with
    | Complete { dur_ns } -> [ ("ph", Json.String "X"); ("dur", us dur_ns) ]
    | Instant -> [ ("ph", Json.String "i"); ("s", Json.String "t") ]
  in
  let args =
    if ev.args = [] then []
    else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ev.args)) ]
  in
  Json.Obj
    ([
       ("name", Json.String ev.name);
       ("cat", Json.String ev.cat);
       ("pid", Json.Number 0.);
       ("tid", Json.Number (float_of_int ev.tid));
       ("ts", us ev.ts_ns);
     ]
    @ phase @ args)

let chrome_document evs =
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map to_json (sort evs)));
         ("displayTimeUnit", Json.String "ms");
       ])
  ^ "\n"

(* The inverse, and the one strict reader of saved dumps: every field
   {!to_json} writes is required and checked, so [pchls trace validate]
   and [pchls trace tree] accept exactly the same documents. The writer
   prints each microsecond double exactly, so rounding back to
   nanoseconds gives the recorded value. *)
let of_chrome text =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* json = Json.parse text in
  let* evs =
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> Ok evs
    | Some _ -> fail "traceEvents is not an array"
    | None -> fail "missing traceEvents"
  in
  let ns_of_us f = Int64.of_float (Float.round (f *. 1e3)) in
  let event i ev =
    let non_negative field =
      match Json.member field ev with
      | Some (Json.Number f) when f >= 0. -> Ok f
      | Some (Json.Number _) -> fail "event %d: negative %s" i field
      | Some _ -> fail "event %d: %s is not a number" i field
      | None -> fail "event %d: missing %s" i field
    in
    let* name =
      match Json.member "name" ev with
      | Some (Json.String s) when s <> "" -> Ok s
      | Some (Json.String _) -> fail "event %d: empty name" i
      | Some _ -> fail "event %d: name is not a string" i
      | None -> fail "event %d: missing name" i
    in
    let* cat =
      match Json.member "cat" ev with
      | Some (Json.String s) -> Ok s
      | Some _ -> fail "event %d: cat is not a string" i
      | None -> fail "event %d: missing cat" i
    in
    let* ts = non_negative "ts" in
    let* _pid = non_negative "pid" in
    let* tid = non_negative "tid" in
    let* args =
      match Json.member "args" ev with
      | None -> Ok []
      | Some (Json.Obj fields) ->
        if
          List.for_all
            (fun (_, v) -> match v with Json.String _ -> true | _ -> false)
            fields
        then
          Ok
            (List.map
               (fun (k, v) ->
                 match v with Json.String s -> (k, s) | _ -> assert false)
               fields)
        else fail "event %d: non-string arg value" i
      | Some _ -> fail "event %d: args is not an object" i
    in
    let* phase =
      match Json.member "ph" ev with
      | Some (Json.String "X") ->
        let* dur = non_negative "dur" in
        Ok (Complete { dur_ns = ns_of_us dur })
      | Some (Json.String "i") -> (
        match Json.member "s" ev with
        | Some (Json.String ("t" | "p" | "g")) -> Ok Instant
        | Some _ -> fail "event %d: bad instant scope" i
        | None -> fail "event %d: instant without scope" i)
      | Some (Json.String ph) -> fail "event %d: unknown phase %S" i ph
      | Some _ -> fail "event %d: ph is not a string" i
      | None -> fail "event %d: missing ph" i
    in
    Ok { name; cat; phase; ts_ns = ns_of_us ts; tid = int_of_float tid; args }
  in
  let rec all i acc = function
    | [] -> Ok (List.rev acc)
    | ev :: rest ->
      let* e = event i ev in
      all (i + 1) (e :: acc) rest
  in
  all 0 [] evs

(* --- human-readable tree ------------------------------------------------ *)

let pp_dur ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Printf.sprintf "%.2f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1f us" (f /. 1e3)
  else Printf.sprintf "%Ld ns" ns

let render_tree evs =
  let evs = sort evs in
  let tids = List.sort_uniq Int.compare (List.map (fun e -> e.tid) evs) in
  let buf = Buffer.create 1024 in
  List.iter
    (fun tid ->
      Buffer.add_string buf (Printf.sprintf "domain %d\n" tid);
      let stack = ref [] in
      List.iter
        (fun ev ->
          if ev.tid = tid then begin
            (* Pop finished ancestors: ev starts at or after their end. *)
            stack :=
              List.filter (fun e -> Int64.compare ev.ts_ns e < 0) !stack;
            let indent = String.make (2 * (1 + List.length !stack)) ' ' in
            let args =
              if ev.args = [] then ""
              else
                Printf.sprintf "  [%s]"
                  (String.concat " "
                     (List.map (fun (k, v) -> k ^ "=" ^ v) ev.args))
            in
            (match ev.phase with
            | Complete { dur_ns } ->
              Buffer.add_string buf
                (Printf.sprintf "%s%-40s %10s%s\n" indent ev.name
                   (pp_dur dur_ns) args);
              stack := end_ns ev :: !stack
            | Instant ->
              Buffer.add_string buf
                (Printf.sprintf "%s- %s%s\n" indent ev.name args))
          end)
        evs)
    tids;
  Buffer.contents buf
