module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec

type t = string

let of_string s = Digest.to_hex (Digest.string s)
let combine parts = of_string (String.concat "\n" parts)
let float_repr f = Printf.sprintf "%h" f

(* Canonical colour refinement on an ordered partition. [elems] lists the
   nodes so that every class (cell) is a contiguous run, and a node's label
   [cell.(i)] is the position where its cell starts. Cells only ever split,
   each into fragments laid out in its own run, so a label is fixed by
   structure alone, never by node ids. The cells start ordered by (kind,
   name), all queued as splitters; a splitter splits every cell by how
   many successors, and then predecessors, its nodes have in it. A split
   cell queues its fragments, all of them if it is still queued, else all
   but the largest (Hopcroft), so each node is in O(log n) splitters. What
   is split, queued and popped when depends on labels and counts only, so
   the final partition is the stable one, ordered canonically. *)
let graph g =
  let n = Graph.node_count g in
  let preds = Graph.pred_indices g and succs = Graph.succ_indices g in
  let buf = Buffer.create 1024 in
  let int i = Buffer.add_int64_le buf (Int64.of_int i) in
  let text s =
    int (String.length s);
    Buffer.add_string buf s
  in
  text (Graph.name g);
  int n;
  int (Graph.edge_count g);
  let kinds = Array.init n (fun i -> Op.to_string (Graph.node_at g i).Graph.kind)
  and names = Array.init n (fun i -> (Graph.node_at g i).Graph.name) in
  let compare_keys i j =
    match String.compare kinds.(i) kinds.(j) with
    | 0 -> String.compare names.(i) names.(j)
    | c -> c
  in
  let elems = Array.init n Fun.id in
  Array.stable_sort compare_keys elems;
  let pos = Array.make n 0 and cell = Array.make n 0 in
  let size = Array.make n 0 (* indexed by a cell's start *) in
  let queue = Queue.create () and queued = Array.make n false in
  Array.iteri
    (fun p i ->
      pos.(i) <- p;
      if p > 0 && compare_keys elems.(p - 1) i = 0 then
        cell.(i) <- cell.(elems.(p - 1))
      else begin
        cell.(i) <- p;
        queued.(p) <- true;
        Queue.push p queue
      end;
      size.(cell.(i)) <- size.(cell.(i)) + 1)
    elems;
  Queue.iter
    (fun s ->
      text kinds.(elems.(s));
      text names.(elems.(s));
      int size.(s))
    queue;
  let cells = ref (Queue.length queue) and count = Array.make n 0 in
  (* Split the cell starting at [s] whose nodes [touched.(lo..hi-1)],
     sorted by count, have neighbours in the splitter; its other nodes have
     none. Fragments are laid out by ascending count, so the untouched ones
     keep the start [s]. *)
  let split_cell touched lo hi =
    let s = cell.(touched.(lo)) and k = hi - lo in
    let len = size.(s) in
    if k < len || count.(touched.(lo)) <> count.(touched.(hi - 1)) then begin
      let base = s + len - k in
      for j = 0 to k - 1 do
        let v = touched.(lo + j) and p = base + j in
        let w = elems.(p) in
        elems.(pos.(v)) <- w;
        pos.(w) <- pos.(v);
        elems.(p) <- v;
        pos.(v) <- p
      done;
      let starts = ref [] in
      for p = base to s + len - 1 do
        let v = elems.(p) in
        if p > s && (p = base || count.(v) <> count.(elems.(p - 1))) then
          starts := p :: !starts;
        match !starts with f :: _ -> cell.(v) <- f | [] -> ()
      done;
      let fragments = Array.of_list (s :: List.rev !starts) in
      let r = Array.length fragments in
      Array.iteri
        (fun j f ->
          size.(f) <- (if j + 1 < r then fragments.(j + 1) else s + len) - f)
        fragments;
      cells := !cells + r - 1;
      (* The counts into a used splitter's largest fragment are its counts
         minus those into the others, so that fragment need not be queued. *)
      let skip =
        if queued.(s) then s
        else
          Array.fold_left
            (fun b f -> if size.(f) > size.(b) then f else b)
            s fragments
      in
      Array.iter
        (fun f ->
          if f <> skip && not queued.(f) then begin
            queued.(f) <- true;
            Queue.push f queue
          end)
        fragments
    end
  in
  (* [split preds members] splits every cell by how many successors its
     nodes have among [members]; [split succs members], by predecessors. *)
  let split neighbours members =
    let touched = ref [] in
    Array.iter
      (fun u ->
        Array.iter
          (fun v ->
            if count.(v) = 0 then touched := v :: !touched;
            count.(v) <- count.(v) + 1)
          (neighbours u))
      members;
    let touched = Array.of_list !touched in
    let key v = (cell.(v) * (n + 1)) + count.(v) in
    Array.sort (fun a b -> Int.compare (key a) (key b)) touched;
    let lo = ref 0 and k = Array.length touched in
    while !lo < k do
      let hi = ref (!lo + 1) in
      while !hi < k && cell.(touched.(!hi)) = cell.(touched.(!lo)) do
        incr hi
      done;
      split_cell touched !lo !hi;
      lo := !hi
    done;
    Array.iter (fun v -> count.(v) <- 0) touched
  in
  while !cells < n && not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    queued.(s) <- false;
    let members = Array.sub elems s size.(s) in
    split preds members;
    split succs members
  done;
  (* The labelled edges. With the table of (kind, name) cells they fix the
     quotient of the stable partition: a cell that no edge names holds
     only isolated nodes, which no splitter touches, so it starts where
     its (kind, name) cell did. *)
  let edges = Array.make (Graph.edge_count g) 0 and k = ref 0 in
  for i = 0 to n - 1 do
    Array.iter
      (fun j ->
        edges.(!k) <- (cell.(i) * n) + cell.(j);
        incr k)
      (succs i)
  done;
  Array.stable_sort Int.compare edges;
  Array.iter
    (fun e ->
      int (e / n);
      int (e mod n))
    edges;
  of_string (Buffer.contents buf)

let library lib =
  Library.to_list lib
  |> List.map (fun (m : Module_spec.t) ->
         Printf.sprintf "m:%s:%s:%s:%d:%s" m.Module_spec.name
           (String.concat ","
              (List.map Op.to_string m.Module_spec.ops))
           (float_repr m.Module_spec.area)
           m.Module_spec.latency
           (float_repr m.Module_spec.power))
  |> String.concat "\n" |> of_string
