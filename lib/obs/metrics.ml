type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  bounds : float array;  (* ascending upper bounds *)
  buckets : int Atomic.t array;  (* length bounds + 1; last = overflow *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_mutex = Mutex.create ()

let register name make cast kind =
  Mutex.protect reg_mutex @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m -> (
    match cast m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as another kind"
           name))
  | None ->
    let v = make () in
    Hashtbl.replace registry name (kind v);
    v

let counter name =
  register name
    (fun () -> Atomic.make 0)
    (function C c -> Some c | G _ | H _ -> None)
    (fun c -> C c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c

let gauge name =
  register name
    (fun () -> Atomic.make 0.)
    (function G g -> Some g | C _ | H _ -> None)
    (fun g -> G g)

let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let histogram ~buckets name =
  let bounds = Array.of_list buckets in
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: buckets not strictly ascending")
    bounds;
  let h =
    register name
      (fun () ->
        {
          bounds;
          buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.;
        })
      (function H h -> Some h | C _ | G _ -> None)
      (fun h -> H h)
  in
  if h.bounds <> bounds then
    invalid_arg
      (Printf.sprintf "Metrics: histogram %S re-registered with different \
                       buckets" name);
  h

let observe h v =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || v <= h.bounds.(i) then i else slot (i + 1) in
  ignore (Atomic.fetch_and_add h.buckets.(slot 0) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  atomic_add_float h.h_sum v

let time h f =
  let t0 = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> observe h (Clock.elapsed_ns ~since:t0)) f

let ns_buckets = [ 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 ]

type hist_snapshot = {
  bounds : float list;
  counts : int list;
  overflow : int;
  count : int;
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

let snapshot_hist h =
  let per_bucket = Array.map Atomic.get h.buckets in
  {
    bounds = Array.to_list h.bounds;
    counts = Array.to_list (Array.sub per_bucket 0 (Array.length h.bounds));
    overflow = per_bucket.(Array.length h.bounds);
    count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
  }

let snapshot () =
  let entries =
    Mutex.protect reg_mutex @@ fun () ->
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
  in
  entries
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | C c -> Counter (Atomic.get c)
           | G g -> Gauge (Atomic.get g)
           | H h -> Histogram (snapshot_hist h) ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  Mutex.protect reg_mutex @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g 0.
      | H h ->
        Array.iter (fun b -> Atomic.set b 0) h.buckets;
        Atomic.set h.h_count 0;
        Atomic.set h.h_sum 0.)
    registry

(* --- rendering ---------------------------------------------------------- *)

let pp_bound b =
  if Float.is_integer b && Float.abs b < 1e15 then
    Printf.sprintf "%.0f" b
  else Printf.sprintf "%g" b

let hist_line s =
  let mean = if s.count = 0 then 0. else s.sum /. float_of_int s.count in
  let cells =
    List.map2
      (fun b n -> Printf.sprintf "<=%s:%d" (pp_bound b) n)
      s.bounds s.counts
    @ [ Printf.sprintf ">:%d" s.overflow ]
  in
  Printf.sprintf "count=%d mean=%.1f [%s]" s.count mean
    (String.concat " " cells)

let dump () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let kind, rendered =
        match v with
        | Counter n -> ("counter", string_of_int n)
        | Gauge f -> ("gauge", Printf.sprintf "%g" f)
        | Histogram s -> ("histogram", hist_line s)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-9s %-28s %s\n" kind name rendered))
    (snapshot ());
  Buffer.contents buf

(* --- Prometheus text exposition ----------------------------------------- *)

(* Registry names are dotted ([serve.request_ns]); Prometheus names admit
   only [a-zA-Z0-9_:]. Sanitize, prefix with the product name, and give
   counters the conventional [_total] suffix. *)
let prom_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  "pchls_" ^ Bytes.to_string b

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_prometheus () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let pname = prom_name name in
      match v with
      | Counter n ->
        Printf.bprintf buf "# TYPE %s_total counter\n%s_total %d\n" pname
          pname n
      | Gauge f ->
        Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" pname pname
          (prom_float f)
      | Histogram s ->
        Printf.bprintf buf "# TYPE %s histogram\n" pname;
        let cum = ref 0 in
        List.iter2
          (fun b n ->
            cum := !cum + n;
            Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" pname (pp_bound b)
              !cum)
          s.bounds s.counts;
        Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" pname
          (!cum + s.overflow);
        Printf.bprintf buf "%s_sum %s\n" pname (prom_float s.sum);
        Printf.bprintf buf "%s_count %d\n" pname s.count)
    (snapshot ());
  Buffer.contents buf

(* A promtool-style grammar check over exposition text, so CI can gate
   GET /metrics without pulling in Prometheus itself. Deliberately
   strict on what [to_prometheus] promises: name/label syntax, float
   values, TYPE-before-samples, and histogram coherence (cumulative
   non-decreasing buckets ending at le="+Inf" whose value matches
   [_count]). *)
let validate_prometheus text =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let is_name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let is_name_char c = is_name_start c || (c >= '0' && c <= '9') in
  let valid_name s =
    s <> ""
    && is_name_start s.[0]
    && String.for_all is_name_char s
  in
  let parse_value s =
    match String.lowercase_ascii s with
    | "+inf" | "inf" -> Some Float.infinity
    | "-inf" -> Some Float.neg_infinity
    | "nan" -> Some Float.nan
    | _ -> float_of_string_opt s
  in
  (* name{label="value",...} — returns (name, labels, rest-after-'}'). *)
  let parse_sample_head lineno line =
    let n = String.length line in
    let rec name_end i = if i < n && is_name_char line.[i] then name_end (i + 1) else i in
    let ne = name_end 0 in
    let name = String.sub line 0 ne in
    if not (valid_name name) then fail "line %d: invalid metric name" lineno
    else if ne < n && line.[ne] = '{' then begin
      (* Scan label pairs, honoring backslash escapes inside values. *)
      let labels = ref [] in
      let i = ref (ne + 1) in
      let err = ref None in
      let finished = ref false in
      while not !finished && !err = None do
        if !i >= n then begin
          err := Some "unterminated label set"
        end
        else if line.[!i] = '}' then begin
          i := !i + 1;
          finished := true
        end
        else begin
          let ls = !i in
          let rec lname_end j =
            if j < n && is_name_char line.[j] then lname_end (j + 1) else j
          in
          let le = lname_end ls in
          let lname = String.sub line ls (le - ls) in
          if lname = "" || not (is_name_start lname.[0]) then
            err := Some "invalid label name"
          else if le >= n - 1 || line.[le] <> '=' || line.[le + 1] <> '"' then
            err := Some "label value must be quoted"
          else begin
            let vbuf = Buffer.create 16 in
            let j = ref (le + 2) in
            let closed = ref false in
            while not !closed && !err = None do
              if !j >= n then err := Some "unterminated label value"
              else
                match line.[!j] with
                | '"' ->
                  closed := true;
                  j := !j + 1
                | '\\' ->
                  if !j + 1 >= n then err := Some "dangling escape"
                  else begin
                    (match line.[!j + 1] with
                    | '\\' -> Buffer.add_char vbuf '\\'
                    | '"' -> Buffer.add_char vbuf '"'
                    | 'n' -> Buffer.add_char vbuf '\n'
                    | _ -> err := Some "bad escape in label value");
                    j := !j + 2
                  end
                | c ->
                  Buffer.add_char vbuf c;
                  j := !j + 1
            done;
            if !err = None then begin
              labels := (lname, Buffer.contents vbuf) :: !labels;
              i := !j;
              if !i < n && line.[!i] = ',' then i := !i + 1
              else if !i >= n || line.[!i] <> '}' then
                err := Some "expected ',' or '}' after label"
            end
          end
        end
      done;
      match !err with
      | Some msg -> fail "line %d: %s" lineno msg
      | None -> Ok (name, List.rev !labels, String.sub line !i (n - !i))
    end
    else Ok (name, [], String.sub line ne (n - ne))
  in
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let sampled : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* (base histogram name, le, cumulative count) in file order, plus the
     _count samples, checked for coherence at the end. *)
  let hist_buckets : (string * float * float) list ref = ref [] in
  let hist_counts : (string * float) list ref = ref [] in
  let samples = ref 0 in
  let check_line lineno line =
    if line = "" then Ok ()
    else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
      match String.split_on_char ' ' (String.sub line 7 (String.length line - 7)) with
      | [ name; kind ] ->
        if not (valid_name name) then
          fail "line %d: invalid metric name in TYPE" lineno
        else if
          not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
        then fail "line %d: unknown TYPE %S" lineno kind
        else if Hashtbl.mem types name then
          fail "line %d: duplicate TYPE for %s" lineno name
        else if Hashtbl.mem sampled name then
          fail "line %d: TYPE for %s after its samples" lineno name
        else begin
          Hashtbl.replace types name kind;
          Ok ()
        end
      | _ -> fail "line %d: malformed TYPE line" lineno
    end
    else if line.[0] = '#' then Ok () (* HELP or free comment *)
    else
      let* name, labels, rest = parse_sample_head lineno line in
      let rest = String.trim rest in
      let* value =
        match String.split_on_char ' ' rest with
        | [ v ] | [ v; _ ] -> (
          (* optional trailing timestamp *)
          match parse_value v with
          | Some f -> Ok f
          | None -> fail "line %d: invalid sample value %S" lineno v)
        | _ -> fail "line %d: malformed sample" lineno
      in
      Hashtbl.replace sampled name ();
      samples := !samples + 1;
      let strip suffix =
        let ls = String.length suffix and ln = String.length name in
        if ln > ls && String.sub name (ln - ls) ls = suffix then
          Some (String.sub name 0 (ln - ls))
        else None
      in
      (match (strip "_bucket", List.assoc_opt "le" labels) with
      | Some base, Some le when Hashtbl.find_opt types base = Some "histogram"
        -> (
        match parse_value le with
        | Some b -> hist_buckets := (base, b, value) :: !hist_buckets
        | None -> ())
      | _ -> ());
      (match strip "_count" with
      | Some base when Hashtbl.find_opt types base = Some "histogram" ->
        hist_counts := (base, value) :: !hist_counts
      | _ -> ());
      Ok ()
  in
  let lines = String.split_on_char '\n' text in
  let rec all lineno = function
    | [] -> Ok ()
    | line :: rest ->
      let* () = check_line lineno line in
      all (lineno + 1) rest
  in
  let* () = all 1 lines in
  (* Histogram coherence, per base name in file order. *)
  let bases =
    List.sort_uniq String.compare (List.map (fun (b, _, _) -> b) !hist_buckets)
  in
  let rec check_bases = function
    | [] -> Ok !samples
    | base :: rest ->
      let buckets =
        List.rev
          (List.filter_map
             (fun (b, le, v) -> if b = base then Some (le, v) else None)
             !hist_buckets)
      in
      let rec non_decreasing = function
        | (_, a) :: ((_, b) :: _ as tl) ->
          if a > b then false else non_decreasing tl
        | _ -> true
      in
      if not (non_decreasing buckets) then
        fail "histogram %s: bucket counts are not cumulative" base
      else if
        match List.rev buckets with
        | (le, _) :: _ -> le <> Float.infinity
        | [] -> true
      then fail "histogram %s: missing le=\"+Inf\" bucket" base
      else
        let inf_count =
          match List.rev buckets with (_, v) :: _ -> v | [] -> 0.
        in
        let* () =
          match List.assoc_opt base !hist_counts with
          | Some c when c <> inf_count ->
            fail "histogram %s: _count %g disagrees with +Inf bucket %g" base
              c inf_count
          | _ -> Ok ()
        in
        check_bases rest
  in
  check_bases bases

let to_json () =
  let int n = Json.Number (float_of_int n) in
  let value = function
    | Counter n -> int n
    | Gauge f -> Json.Number f
    | Histogram s ->
      Json.Obj
        [
          ("count", int s.count);
          ("sum", Json.Number s.sum);
          ("overflow", int s.overflow);
          ( "buckets",
            Json.List
              (List.map2
                 (fun b n -> Json.Obj [ ("le", Json.Number b); ("n", int n) ])
                 s.bounds s.counts) );
        ]
  in
  Json.to_string
    (Json.Obj (List.map (fun (name, v) -> (name, value v)) (snapshot ())))
