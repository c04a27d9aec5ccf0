module Op = Pchls_dfg.Op
module Module_spec = Pchls_fulib.Module_spec
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics
module Clock = Pchls_obs.Clock
module Fault = Pchls_resil.Fault
module Atomic_io = Pchls_resil.Atomic_io

let m_hit = Metrics.counter "cache.hit"
let m_hit_memory = Metrics.counter "cache.hit.memory"
let m_hit_disk = Metrics.counter "cache.hit.disk"
let m_miss = Metrics.counter "cache.miss"
let m_store = Metrics.counter "cache.store"
let m_corrupt = Metrics.counter "cache.corrupt_entries"
let m_degraded = Metrics.counter "cache.degraded"
let m_evictions = Metrics.counter "cache.evictions"

let h_memory_lookup_ns =
  Metrics.histogram ~buckets:Metrics.ns_buckets "cache.memory_lookup_ns"

let h_disk_lookup_ns =
  Metrics.histogram ~buckets:Metrics.ns_buckets "cache.disk_lookup_ns"

type key = { fingerprint : Fingerprint.t; time_limit : int; power_limit : float }

type summary =
  | Feasible of {
      area : float;
      peak : float;
      instances : (Module_spec.t * (int * int) list) list;
    }
  | Infeasible of string

type stats = {
  hits : int;  (** total, [memory_hits + disk_hits] *)
  misses : int;
  stores : int;
  memory_hits : int;
  disk_hits : int;
  corrupt : int;
  degraded : bool;
  evictions : int;
}

(* A memory-tier entry: the summary plus its last-access sequence number,
   shared with the LRU queue below for lazy invalidation. *)
type entry = { summary : summary; mutable last_access : int }

type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  disk : string option;  (** the versioned subdirectory *)
  mem_entries : int option;  (** memory-tier capacity; [None] = unbounded *)
  lru : (string * int) Queue.t;
      (** (key, access sequence) in access order; stale pairs — the key was
          touched again later or already evicted — are skipped on pop and
          dropped when the queue is compacted *)
  mutable access_seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable memory_hits : int;
  mutable disk_hits : int;
  mutable corrupt : int;
  mutable evictions : int;
  mutable disk_failed : bool;  (** disk tier permanently off after an error *)
}

let version = "v2"
let extension = ".pchls-cache"
let header = "pchls-cache " ^ version

(* Key to entry id: the power limit goes in by its IEEE bits so infinities
   and negative zeros stay distinct and filenames stay safe. *)
let key_id k =
  Printf.sprintf "%s-t%d-p%Lx" k.fingerprint k.time_limit
    (Int64.bits_of_float k.power_limit)

let create ?dir ?mem_entries () =
  (match mem_entries with
  | Some n when n < 1 ->
    invalid_arg
      (Printf.sprintf "Store.create: mem_entries must be >= 1, got %d" n)
  | Some _ | None -> ());
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    disk = Option.map (fun d -> Filename.concat d version) dir;
    mem_entries;
    lru = Queue.create ();
    access_seq = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    memory_hits = 0;
    disk_hits = 0;
    corrupt = 0;
    evictions = 0;
    disk_failed = false;
  }

let in_memory () = create ()
let dir t = t.disk

(* --- serialization ------------------------------------------------------ *)

let render_summary = function
  | Feasible { area; peak; instances } ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "%s\nfeasible %h %h %d\n" header area peak
         (List.length instances));
    List.iter
      (fun ((m : Module_spec.t), ops) ->
        Buffer.add_string buf
          (Printf.sprintf "module %d %h %h %s %s\n" m.Module_spec.latency
             m.Module_spec.area m.Module_spec.power
             (String.concat "," (List.map Op.to_string m.Module_spec.ops))
             m.Module_spec.name);
        Buffer.add_string buf
          (Printf.sprintf "ops%s\n"
             (String.concat ""
                (List.map (fun (op, t) -> Printf.sprintf " %d:%d" op t) ops))))
      instances;
    Buffer.contents buf
  | Infeasible reason ->
    Printf.sprintf "%s\ninfeasible %s\n" header (String.escaped reason)

(* Defensive parse: [None] on any malformed shape; callers treat that as a
   miss (corrupt or stale entry). *)
let parse_summary text =
  let ( let* ) = Option.bind in
  let parse_instance = function
    | [ mline; oline ] ->
      let* () =
        if String.length mline > 7 && String.sub mline 0 7 = "module " then
          Some ()
        else None
      in
      (match String.split_on_char ' ' mline with
      | "module" :: lat :: area :: power :: ops :: name_words
        when name_words <> [] ->
        let name = String.concat " " name_words in
        let* latency = int_of_string_opt lat in
        let* area = float_of_string_opt area in
        let* power = float_of_string_opt power in
        let* kinds =
          List.fold_left
            (fun acc s ->
              let* acc = acc in
              match Op.of_string s with
              | Ok k -> Some (k :: acc)
              | Error _ -> None)
            (Some []) (String.split_on_char ',' ops)
        in
        let* spec =
          match
            Module_spec.make ~name ~ops:(List.rev kinds) ~area ~latency ~power
          with
          | Ok m -> Some m
          | Error _ -> None
        in
        let* ops =
          match String.split_on_char ' ' oline with
          | "ops" :: pairs ->
            List.fold_left
              (fun acc pair ->
                let* acc = acc in
                match String.split_on_char ':' pair with
                | [ op; start ] ->
                  let* op = int_of_string_opt op in
                  let* start = int_of_string_opt start in
                  Some ((op, start) :: acc)
                | _ -> None)
              (Some []) pairs
            |> Option.map List.rev
          | _ -> None
        in
        Some (spec, ops)
      | _ -> None)
    | _ -> None
  in
  let rec chunks2 = function
    | [] -> Some []
    | a :: b :: rest ->
      let* i = parse_instance [ a; b ] in
      let* is = chunks2 rest in
      Some (i :: is)
    | [ _ ] -> None
  in
  match String.split_on_char '\n' (String.trim text) with
  | h :: first :: rest when h = header -> (
    match String.split_on_char ' ' first with
    | [ "feasible"; area; peak; n ] ->
      let* area = float_of_string_opt area in
      let* peak = float_of_string_opt peak in
      let* n = int_of_string_opt n in
      let* instances = chunks2 rest in
      if List.length instances = n then Some (Feasible { area; peak; instances })
      else None
    | "infeasible" :: reason_words -> (
      match Scanf.unescaped (String.concat " " reason_words) with
      | reason -> Some (Infeasible reason)
      | exception Scanf.Scan_failure _ -> None)
    | _ -> None)
  | _ -> None

(* --- tiers -------------------------------------------------------------- *)

let entry_path disk id = Filename.concat disk (id ^ extension)

(* A disk I/O error turns the disk tier off for the rest of the store's
   life — the memory tier keeps working, so synthesis degrades to
   cache-off rather than aborting or hammering a broken filesystem. Called
   with the store mutex held. *)
let degrade t msg =
  if not t.disk_failed then begin
    t.disk_failed <- true;
    Metrics.incr m_degraded;
    Printf.eprintf
      "pchls: warning: cache disk tier disabled, continuing without it: %s\n%!"
      msg
  end

(* A corrupt entry is renamed aside rather than deleted (its bytes may
   matter for debugging) or left in place (it would be re-parsed on every
   lookup). The [".bad"] suffix keeps it off the [extension] filter until
   [clear] deletes it. *)
let quarantine t path =
  t.corrupt <- t.corrupt + 1;
  Metrics.incr m_corrupt;
  let bad = path ^ ".bad" in
  try Sys.rename path bad
  with Sys_error msg -> degrade t ("quarantine failed: " ^ msg)

let disk_find t disk id =
  let path = entry_path disk id in
  if Fault.fires "cache.read" then begin
    degrade t "injected fault: cache.read";
    None
  end
  else if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
      degrade t msg;
      None
    | text -> (
      match parse_summary text with
      | Some _ as s -> s
      | None ->
        quarantine t path;
        None)

let disk_add t disk id summary =
  if Fault.fires "cache.write" then degrade t "injected fault: cache.write"
  else
    try
      Atomic_io.mkdirs disk;
      Atomic_io.write_file (entry_path disk id) (render_summary summary)
    with Sys_error msg -> degrade t msg

(* --- memory tier LRU cap ------------------------------------------------ *)

(* All four helpers run with the store mutex held.

   [touch] records an access: the entry remembers its latest sequence
   number and the queue gains an (id, seq) pair, so every earlier pair for
   the same id becomes stale — the classic lazy-deletion LRU, O(1) per
   access. Unbounded stores skip all of it (the queue would only grow). *)
let fresh t (id, seq) =
  match Hashtbl.find_opt t.table id with
  | Some e -> e.last_access = seq
  | None -> false

(* Eviction pops stale pairs only while the table is over its cap, so a
   store whose working set fits would keep one pair per hit forever. Once
   stale pairs outnumber resident entries, keep only each entry's freshest
   pair, in queue order: eviction order is unchanged and the rebuild costs
   O(1) amortised per access. *)
let compact t =
  if Queue.length t.lru > (2 * Hashtbl.length t.table) + 16 then begin
    let kept = Queue.create () in
    Queue.iter (fun pair -> if fresh t pair then Queue.push pair kept) t.lru;
    Queue.clear t.lru;
    Queue.transfer kept t.lru
  end

let touch t entry id =
  match t.mem_entries with
  | None -> ()
  | Some _ ->
    t.access_seq <- t.access_seq + 1;
    entry.last_access <- t.access_seq;
    Queue.push (id, t.access_seq) t.lru;
    compact t

let rec evict_over_capacity t =
  match t.mem_entries with
  | None -> ()
  | Some cap ->
    if Hashtbl.length t.table > cap then begin
      match Queue.pop t.lru with
      | exception Queue.Empty -> () (* cap >= 1 keeps this unreachable *)
      | (id, _) as pair ->
        if fresh t pair then begin
          (* Freshest pair for a resident entry: genuinely least recently
             used, out it goes. Stale pairs just get skipped. *)
          Hashtbl.remove t.table id;
          t.evictions <- t.evictions + 1;
          Metrics.incr m_evictions
        end;
        evict_over_capacity t
    end

let mem_insert t id summary =
  let entry = { summary; last_access = 0 } in
  Hashtbl.replace t.table id entry;
  touch t entry id;
  evict_over_capacity t

(* Which tier satisfied a lookup; [None] on miss. *)
type tier = Memory | Disk

let find t k =
  Trace.span ~cat:"cache" "cache.find" @@ fun () ->
  Mutex.protect t.mutex @@ fun () ->
  let id = key_id k in
  let memory_start = Clock.now_ns () in
  let memory = Hashtbl.find_opt t.table id in
  Metrics.observe h_memory_lookup_ns (Clock.elapsed_ns ~since:memory_start);
  let outcome, tier =
    match memory with
    | Some e ->
      touch t e id;
      (Some e.summary, Some Memory)
    | None -> (
      match t.disk with
      | None -> (None, None)
      | Some _ when t.disk_failed -> (None, None)
      | Some disk -> (
        let disk_start = Clock.now_ns () in
        let found = disk_find t disk id in
        Metrics.observe h_disk_lookup_ns (Clock.elapsed_ns ~since:disk_start);
        match found with
        | Some s ->
          mem_insert t id s;
          (Some s, Some Disk)
        | None -> (None, None)))
  in
  let answer =
    match tier with
    | Some tier -> (
      t.hits <- t.hits + 1;
      Metrics.incr m_hit;
      match tier with
      | Memory ->
        t.memory_hits <- t.memory_hits + 1;
        Metrics.incr m_hit_memory;
        "memory"
      | Disk ->
        t.disk_hits <- t.disk_hits + 1;
        Metrics.incr m_hit_disk;
        "disk")
    | None ->
      t.misses <- t.misses + 1;
      Metrics.incr m_miss;
      "miss"
  in
  if Trace.observed () then
    Trace.instant ~cat:"cache"
      ~args:[ ("outcome", answer); ("key", id) ]
      "cache.outcome";
  outcome

let add t k summary =
  Trace.span ~cat:"cache" "cache.add" @@ fun () ->
  Mutex.protect t.mutex @@ fun () ->
  let id = key_id k in
  mem_insert t id summary;
  t.stores <- t.stores + 1;
  Metrics.incr m_store;
  if not t.disk_failed then
    Option.iter (fun disk -> disk_add t disk id summary) t.disk

let stats t =
  Mutex.protect t.mutex @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    memory_hits = t.memory_hits;
    disk_hits = t.disk_hits;
    corrupt = t.corrupt;
    degraded = t.disk_failed;
    evictions = t.evictions;
  }

let size t = Mutex.protect t.mutex @@ fun () -> Hashtbl.length t.table

let entries_of_disk ?(quarantined = false) disk =
  match Sys.readdir disk with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f ->
           Filename.check_suffix f extension
           || (quarantined && Filename.check_suffix f (extension ^ ".bad")))
    |> List.map (Filename.concat disk)

(* Every [v<digits>] sibling of the current tier holds entries of an
   older format that no lookup reads any more, so [clear] deletes those
   too, and then the emptied older directories. *)
let is_tier name =
  String.length name > 1
  && name.[0] = 'v'
  && String.for_all (function '0' .. '9' -> true | _ -> false)
       (String.sub name 1 (String.length name - 1))

let clear t =
  Mutex.protect t.mutex @@ fun () ->
  Hashtbl.reset t.table;
  Queue.clear t.lru;
  match t.disk with
  | None -> ()
  | Some disk ->
    let root = Filename.dirname disk in
    let tiers =
      match Sys.readdir root with
      | exception Sys_error _ -> []
      | names -> List.filter is_tier (Array.to_list names)
    in
    List.iter
      (fun name ->
        let tier = Filename.concat root name in
        List.iter
          (fun path -> try Sys.remove path with Sys_error _ -> ())
          (entries_of_disk ~quarantined:true tier);
        if name <> version then try Sys.rmdir tier with Sys_error _ -> ())
      tiers

let disk_usage ~dir =
  let disk = Filename.concat dir version in
  List.fold_left
    (fun (n, bytes) path ->
      let size =
        match In_channel.with_open_bin path In_channel.length with
        | exception Sys_error _ -> 0
        | n -> Int64.to_int n
      in
      (n + 1, bytes + size))
    (0, 0) (entries_of_disk disk)

let pp_stats ppf
    ({
       hits;
       misses;
       stores;
       memory_hits;
       disk_hits;
       corrupt;
       degraded;
       evictions;
     } :
      stats) =
  Format.fprintf ppf "hits=%d (memory=%d disk=%d) misses=%d stores=%d" hits
    memory_hits disk_hits misses stores;
  (* Degradation/eviction facts only appear when they happened, keeping the
     healthy-path rendering (and the golden CLI outputs) unchanged. *)
  if evictions > 0 then Format.fprintf ppf " evictions=%d" evictions;
  if corrupt > 0 then Format.fprintf ppf " corrupt=%d" corrupt;
  if degraded then Format.fprintf ppf " degraded"
