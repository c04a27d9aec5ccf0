type phase = Event.phase = Complete of { dur_ns : int64 } | Instant

type event = Event.t = {
  name : string;
  cat : string;
  phase : phase;
  ts_ns : int64;
  tid : int;
  args : (string * string) list;
}

(* Each shard is independently mutex-protected: recording takes one short
   critical section on the recording domain's shard, so workers never
   contend with each other on the hot path. An unbounded recorder keeps a
   list; a bounded one overwrites slot [n mod capacity] of its ring. The
   ring is kept as columns, timestamps as unboxed ints and [dur] = -1 for
   an instant, so a full ring retains each event's strings and args and
   no record, option or boxed int64 around them. A shard allocates its
   columns at its first event: most processes record from fewer domains
   than there are shards. *)
type ring = {
  names : string array;
  cats : string array;
  ts : int array;
  dur : int array;
  tids : int array;
  args : (string * string) list array;
}

type shard = {
  mutex : Mutex.t;
  mutable n : int;  (* events ever recorded into this shard *)
  mutable rev : event list;  (* unbounded: every event, newest first *)
  mutable ring : ring;  (* bounded: the newest [capacity] events *)
}

type t = { epoch_ns : int64; capacity : int option; shards : shard array }

let n_shards = 8
let default_capacity = 4096

let columns slots =
  {
    names = Array.make slots "";
    cats = Array.make slots "";
    ts = Array.make slots 0;
    dur = Array.make slots 0;
    tids = Array.make slots 0;
    args = Array.make slots [];
  }

let make ?capacity () =
  {
    epoch_ns = Clock.now_ns ();
    capacity = Option.map (max 1) capacity;
    shards =
      Array.init n_shards (fun _ ->
          { mutex = Mutex.create (); n = 0; rev = []; ring = columns 0 });
  }

(* Installation order: the crash and signal dumps pick the first bounded
   recorder. *)
let installed : t list Atomic.t = Atomic.make []
let total : int Atomic.t = Atomic.make 0

let rec update f =
  let old = Atomic.get installed in
  if not (Atomic.compare_and_set installed old (f old)) then update f

let install r = update (fun rs -> rs @ [ r ])
let uninstall r = update (List.filter (fun r' -> r' != r))

let with_sink r f =
  install r;
  Fun.protect ~finally:(fun () -> uninstall r) f

let observed () = match Atomic.get installed with [] -> false | _ :: _ -> true

let record r ev =
  let shard = r.shards.((ev.tid land max_int) mod n_shards) in
  Mutex.lock shard.mutex;
  (match r.capacity with
  | None -> shard.rev <- ev :: shard.rev
  | Some cap ->
    if shard.n = 0 then shard.ring <- columns cap;
    let ring = shard.ring and slot = shard.n mod cap in
    ring.names.(slot) <- ev.name;
    ring.cats.(slot) <- ev.cat;
    ring.ts.(slot) <- Int64.to_int ev.ts_ns;
    ring.dur.(slot) <-
      (match ev.phase with
      | Complete { dur_ns } -> Int64.to_int dur_ns
      | Instant -> -1);
    ring.tids.(slot) <- ev.tid;
    ring.args.(slot) <- ev.args);
  shard.n <- shard.n + 1;
  Mutex.unlock shard.mutex;
  Atomic.incr total

(* One event per span, shared by every installed recorder: timestamps
   stay absolute until read. [t0_ns] is absolute. *)
let emit ~name ~cat ~args ~t0_ns ~phase =
  match Atomic.get installed with
  | [] -> ()
  | rs ->
    let ev =
      { name; cat; phase; ts_ns = t0_ns; tid = (Domain.self () :> int); args }
    in
    List.iter (fun r -> record r ev) rs

let span ?(cat = "pchls") ?(args = []) name f =
  if not (observed ()) then f ()
  else
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        emit ~name ~cat ~args ~t0_ns:t0
          ~phase:(Complete { dur_ns = Int64.sub t1 t0 }))
      f

let instant ?(cat = "pchls") ?(args = []) name =
  if observed () then
    emit ~name ~cat ~args ~t0_ns:(Clock.now_ns ()) ~phase:Instant

let locked shard f = Mutex.protect shard.mutex (fun () -> f shard)

(* The ring's events, oldest first, rebuilt from its columns. *)
let ring_events cap s =
  let ring = s.ring in
  List.init (min s.n cap) (fun k ->
      let slot = (s.n - min s.n cap + k) mod cap in
      {
        name = ring.names.(slot);
        cat = ring.cats.(slot);
        phase =
          (if ring.dur.(slot) < 0 then Instant
           else Complete { dur_ns = Int64.of_int ring.dur.(slot) });
        ts_ns = Int64.of_int ring.ts.(slot);
        tid = ring.tids.(slot);
        args = ring.args.(slot);
      })

(* A span that began before the recorder was made or installed can start
   a hair before its epoch: clamp rather than emit a negative ts the
   Chrome schema rejects. *)
let events r =
  let relativize ev =
    let ts = Int64.sub ev.ts_ns r.epoch_ns in
    { ev with ts_ns = (if Int64.compare ts 0L < 0 then 0L else ts) }
  in
  Array.to_list r.shards
  |> List.concat_map (fun shard ->
         locked shard (fun s ->
             match r.capacity with
             | None -> s.rev
             | Some cap -> ring_events cap s))
  |> List.map relativize
  |> Event.sort

let sum r f = Array.fold_left (fun acc shard -> acc + locked shard f) 0 r.shards
let count r = sum r (fun s -> s.n)

let retained r =
  match r.capacity with
  | None -> count r
  | Some cap -> sum r (fun s -> min s.n cap)

let dropped r =
  match r.capacity with
  | None -> 0
  | Some cap -> sum r (fun s -> max 0 (s.n - cap))
let total_recorded () = Atomic.get total
let to_chrome r = Event.chrome_document (events r)
let render_tree r = Event.render_tree (events r)

let dump_to_file r path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_chrome r);
  close_out oc;
  Sys.rename tmp path

(* --- crash and signal dumps --------------------------------------------- *)

let first_bounded () =
  List.find_opt (fun r -> Option.is_some r.capacity) (Atomic.get installed)

let crash_path =
  Atomic.make
    (Option.value
       (Sys.getenv_opt "PCHLS_FLIGHT_CRASH")
       ~default:"pchls-flight-crash.json")

let set_crash_path path = Atomic.set crash_path path

let note_crash ~origin exn =
  try
    instant ~cat:"flight"
      ~args:[ ("origin", origin); ("exn", Printexc.to_string exn) ]
      "flight.crash";
    Option.iter
      (fun r -> dump_to_file r (Atomic.get crash_path))
      (first_bounded ())
  with _ -> ()

let install_sigusr1 ?path () =
  let path =
    match path with
    | Some p -> p
    | None -> Printf.sprintf "pchls-flight-%d.json" (Unix.getpid ())
  in
  (* OCaml signal handlers run at safe points on the main execution, so
     dumping (which allocates) is fine here. *)
  (try
     Sys.set_signal Sys.sigusr1
       (Sys.Signal_handle
          (fun _ ->
            Option.iter
              (fun r -> try dump_to_file r path with _ -> ())
              (first_bounded ())))
   with Invalid_argument _ -> ());
  path
