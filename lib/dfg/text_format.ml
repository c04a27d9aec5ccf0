let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph %s\n" (Graph.name g));
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %s %s\n" n.Graph.id n.Graph.name
           (Op.to_string n.Graph.kind)))
    (Graph.nodes g);
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "edge %d %d\n" a b))
    (Graph.edges g);
  Buffer.contents buf

exception Line_error of string

let fail lineno fmt =
  Printf.ksprintf
    (fun msg -> raise (Line_error (Printf.sprintf "line %d: %s" lineno msg)))
    fmt

(* What [String.trim] strips. *)
let is_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

(* No line form has more words; one more is enough to refuse it. *)
let max_words = 4

(* The words of [text.[lo..hi-1]] as [String.trim] and then
   [String.split_on_char ' '] find them, empty words dropped: the bounds
   of the first [max_words] go to [starts] and [stops], and the count
   stops one past [max_words]. *)
let words text lo hi starts stops =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_space text.[!lo] do
    incr lo
  done;
  while !hi > !lo && is_space text.[!hi - 1] do
    decr hi
  done;
  let count = ref 0 and p = ref !lo in
  while !p < !hi && !count <= max_words do
    if text.[!p] = ' ' then incr p
    else begin
      let q = ref !p in
      while !q < !hi && text.[!q] <> ' ' do
        incr q
      done;
      if !count < max_words then begin
        starts.(!count) <- !p;
        stops.(!count) <- !q
      end;
      incr count;
      p := !q
    end
  done;
  !count

(* Whether [text] holds [keyword] from [at + i] on, past its first [i]
   characters. *)
let rec holds text at keyword i =
  i = String.length keyword
  || (text.[at + i] = keyword.[i] && holds text at keyword (i + 1))

(* One pass over [text] by index; a line is its words' bounds, and only
   the words a node or an error keeps become strings. *)
let of_string text =
  let graph_name = ref None and nodes = ref [] and edges = ref [] in
  let starts = Array.make max_words 0 and stops = Array.make max_words 0 in
  let word k = String.sub text starts.(k) (stops.(k) - starts.(k)) in
  let is k keyword =
    stops.(k) - starts.(k) = String.length keyword
    && holds text starts.(k) keyword 0
  in
  let line lineno lo hi =
    let count = words text lo hi starts stops in
    if count = 0 || text.[starts.(0)] = '#' then ()
    else if is 0 "graph" then begin
      if count <> 2 then fail lineno "graph line takes exactly one name";
      match !graph_name with
      | None -> graph_name := Some (word 1)
      | Some _ -> fail lineno "duplicate graph line"
    end
    else if is 0 "node" then begin
      if count <> 4 then fail lineno "expected: node <id> <name> <kind>";
      let id = word 1 in
      match (int_of_string_opt id, Op.of_string (word 3)) with
      | Some id, Ok kind -> nodes := { Graph.id; name = word 2; kind } :: !nodes
      | None, _ -> fail lineno "node id %S is not an integer" id
      | _, Error msg -> fail lineno "%s" msg
    end
    else if is 0 "edge" then begin
      if count <> 3 then fail lineno "expected: edge <src> <dst>";
      match (int_of_string_opt (word 1), int_of_string_opt (word 2)) with
      | Some a, Some b -> edges := (a, b) :: !edges
      | None, _ | _, None -> fail lineno "edge endpoints must be integers"
    end
    else fail lineno "unknown keyword %S" (word 0)
  in
  let n = String.length text in
  let rec go lineno lo =
    let hi =
      match String.index_from text lo '\n' with
      | i -> i
      | exception Not_found -> n
    in
    line lineno lo hi;
    if hi < n then go (lineno + 1) (hi + 1)
  in
  match go 1 0 with
  | () ->
    let name = Option.value !graph_name ~default:"unnamed" in
    Graph.create ~name ~nodes:(List.rev !nodes) ~edges:(List.rev !edges)
  | exception Line_error msg -> Error msg
