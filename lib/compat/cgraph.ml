(* Adjacency is a bitset row per vertex; weights live in a hash table
   keyed on the packed pair (min*n + max). A 10k-vertex graph costs ~12 MB
   of rows, where a dense [float option array array] would take ~800 MB
   of option cells, and neighbour scans walk one packed row. *)

type t = {
  n : int;
  rows : Bitset.t array;
  weights : (int, float) Hashtbl.t;
  mutable edge_count : int;
}

let create ~n =
  if n < 0 then invalid_arg "Cgraph.create: negative size";
  {
    n;
    rows = Array.init n (fun _ -> Bitset.create n);
    weights = Hashtbl.create (max 16 n);
    edge_count = 0;
  }

let vertex_count g = g.n

let check g u v who =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Cgraph.%s: vertex out of range" who);
  if u = v then invalid_arg (Printf.sprintf "Cgraph.%s: self edge" who)

let key g u v = if u < v then (u * g.n) + v else (v * g.n) + u

let add_edge g u v w =
  check g u v "add_edge";
  let k = key g u v in
  if not (Hashtbl.mem g.weights k) then begin
    Bitset.add g.rows.(u) v;
    Bitset.add g.rows.(v) u;
    g.edge_count <- g.edge_count + 1
  end;
  Hashtbl.replace g.weights k w

let weight g u v =
  check g u v "weight";
  Hashtbl.find_opt g.weights (key g u v)

let compatible g u v =
  check g u v "compatible";
  Bitset.mem g.rows.(u) v

let edges g =
  (* Rows are visited in increasing u and each row in increasing v, every
     pair prepended — one final reverse restores (u, v)-sorted order. *)
  let acc = ref [] in
  for u = 0 to g.n - 1 do
    Bitset.fold
      (fun v () ->
        if v > u then acc := (u, v, Hashtbl.find g.weights (key g u v)) :: !acc)
      g.rows.(u) ()
  done;
  List.rev !acc

let edge_count g = g.edge_count

let neighbours g u =
  if u < 0 || u >= g.n then invalid_arg "Cgraph.neighbours: vertex out of range";
  Bitset.to_list g.rows.(u)

let iter_neighbours g u f =
  if u < 0 || u >= g.n then invalid_arg "Cgraph.iter_neighbours: vertex out of range";
  Bitset.iter f g.rows.(u)

let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest

let is_clique g vs = List.for_all (fun (u, v) -> compatible g u v) (pairs vs)

let clique_weight g vs =
  List.fold_left
    (fun acc (u, v) ->
      match weight g u v with
      | Some w -> acc +. w
      | None -> invalid_arg "Cgraph.clique_weight: not a clique")
    0. (pairs vs)
