(* serve-zipf: a closed loop of keep-alive POST /synth requests on one
   connection to a `pchls serve` child process. Requests follow a Zipf(s=1)
   order over a corpus of paper benchmarks (sent by name) and generated
   50-250-operation DFGs (sent as "dfg" text), at time and power limits
   that mix feasible and infeasible points. The corpus is a few entries
   larger than the daemon's --cache-mem-entries, so the LRU evicts its
   coldest items: cache reads dominate, hits rebuild designs through
   Design.assemble, and the schedulers run only on the rare misses.

   One connection keeps at most one request in flight, so the daemon's
   handler thread and pool domain never compete with a second request or
   with the client for the two cores, and the latency tail stays inside
   the hit population: misses are far rarer than 1 in 100 requests. *)

open Common
module Graph = Pchls_dfg.Graph
module Generator = Pchls_dfg.Generator
module Benchmarks = Pchls_dfg.Benchmarks
module Text_format = Pchls_dfg.Text_format
module Library = Pchls_fulib.Library
module Explore = Pchls_core.Explore
module Design = Pchls_core.Design
module Profile = Pchls_power.Profile
module Pool = Pchls_par.Pool
module Event = Pchls_obs.Event

let mem_entries = 90
let reconnect_every = 16

(* --- corpus ----------------------------------------------------------------- *)

type item = {
  key : string;
  graph : Graph.t;  (** what the daemon will parse out of [body] *)
  time_limit : int;
  power_limit : float;
  body : string;
}

let paper = [ "hal"; "cosine"; "elliptic"; "ar_filter"; "fir16"; "iir_biquad"; "diffeq2" ]

(* Sixteen fixed graphs from 50 to 250 operations. (Seeded wirings would
   move the corpus's total area by ~5% between seeds.) *)
let generated =
  List.init 16 (fun i ->
      let nodes = 50 + (200 * i / 15) in
      let layers = max 2 (int_of_float (Float.round (0.8 *. sqrt (float_of_int nodes)))) in
      let g =
        Generator.layered ~seed:(i + 1) ~layers ~width:(nodes / layers)
          ~fill:true ()
      in
      (* The daemon sees the graph through its text form. *)
      match Text_format.of_string (Text_format.to_string g) with
      | Ok g -> (Printf.sprintf "gen%d" i, g)
      | Error e -> failwith ("serve-zipf: text round trip: " ^ e))

let item ~name ~source g ~time_limit ~power_limit =
  {
    key = Printf.sprintf "%s/T=%d/P=%g" name time_limit power_limit;
    graph = g;
    time_limit;
    power_limit;
    body =
      Json.to_string
        (Json.Obj
           [
             source;
             ("time", Json.Number (float_of_int time_limit));
             ("power", Json.Number power_limit);
           ]);
  }

(* Four constraint points per graph: a tight and a loose time limit around
   the critical path, crossed with a tight and a loose power budget. The
   ranks are a fixed shuffle, so popularity does not follow size. *)
let make_corpus () =
  let points name source g =
    let rows = Sweep_mixed.rows g in
    List.concat_map
      (fun t ->
        List.map
          (fun p -> item ~name ~source g ~time_limit:t ~power_limit:p)
          [ 7.5; 40. ])
      [ List.nth rows 0; List.nth rows 2 ]
  in
  let items =
    List.concat_map
      (fun name -> points name ("benchmark", Json.String name) (Option.get (Benchmarks.find name)))
      paper
    @ List.concat_map
        (fun (name, g) -> points name ("dfg", Json.String (Text_format.to_string g)) g)
        generated
  in
  let a = Array.of_list items in
  let rng = Random.State.make [| 0x21bf |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Item indices in Zipf(s=1) rank order, drawn from the workload seed. *)
let zipf_sequence seed ~items ~length =
  let w = Array.init items (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let cdf = Array.make items 0. in
  ignore
    (Array.fold_left
       (fun (i, acc) x ->
         let acc = acc +. (x /. total) in
         cdf.(i) <- acc;
         (i + 1, acc))
       (0, 0.) w);
  let rng = Random.State.make [| seed; 0x5e7e |] in
  Array.init length (fun _ ->
      let u = Random.State.float rng 1. in
      let rec find i = if i >= items - 1 || u <= cdf.(i) then i else find (i + 1) in
      find 0)

(* --- HTTP client ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec send fd s off =
  if off < String.length s then
    send fd s (off + Unix.write_substring fd s off (String.length s - off))

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let content_length head =
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
           int_of_string_opt
             (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)
  |> Option.value ~default:0

(* One exchange on a keep-alive connection: (status, body). *)
let exchange c request =
  send c.fd request 0;
  let recv () =
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> raise End_of_file
    | n -> Buffer.add_subbytes c.pending c.chunk 0 n
  in
  let rec head () =
    match find_sub (Buffer.contents c.pending) "\r\n\r\n" with
    | Some i -> i
    | None ->
      recv ();
      head ()
  in
  let hend = head () in
  let head_text = Buffer.sub c.pending 0 hend in
  let len = content_length head_text in
  while Buffer.length c.pending < hend + 4 + len do
    recv ()
  done;
  let all = Buffer.contents c.pending in
  Buffer.clear c.pending;
  Buffer.add_string c.pending (String.sub all (hend + 4 + len) (String.length all - hend - 4 - len));
  (int_of_string (String.sub head_text 9 3), String.sub all (hend + 4) len)

let post body =
  Printf.sprintf
    "POST /synth HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
    (String.length body) body

let get port path =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () ->
      exchange c (Printf.sprintf "GET %s HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n" path))

(* --- the daemon ----------------------------------------------------------- *)

type daemon = { pid : int; port : int; out : in_channel; access_log : string }

let listening_prefix = "# pchls serve listening on "

let start cfg ~trace ~access_log =
  (try Sys.remove access_log with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let jobs = string_of_int cfg.jobs in
  let args =
    [ cfg.pchls; "serve"; "--port"; "0"; "-j"; jobs; "--threads"; jobs;
      "--cache-mem-entries"; string_of_int mem_entries; "--access-log"; access_log;
      "--no-color" ]
    @ if trace then [ "--trace" ] else []
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close null)
      (fun () -> Unix.create_process cfg.pchls (Array.of_list args) null w Unix.stderr)
  in
  let out = Unix.in_channel_of_descr r in
  let rec port () =
    match In_channel.input_line out with
    | None -> failwith "serve-zipf: daemon exited before listening"
    | Some line when String.starts_with ~prefix:listening_prefix line ->
      Scanf.sscanf line "# pchls serve listening on %[^:]:%d" (fun _ port -> port)
    | Some _ -> port ()
  in
  { pid; port = port (); out; access_log }

(* SIGINT drains the daemon; it must be gone within ten seconds. *)
let stop d =
  (try Unix.kill d.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if seconds_since deadline > 10. then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else (Unix.sleepf 0.01; wait ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  close_in_noerr d.out

let with_daemon cfg ~trace ~access_log f =
  let d = start cfg ~trace ~access_log in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

(* --- load ----------------------------------------------------------------- *)

type sample = {
  index : int;
  status : int;
  digest : string;
  latency_s : float;
}

(* Distinct answers, kept once for the post-run verification. *)
type answers = (int * int * string, string) Hashtbl.t

(* One closed-loop client over [seq] until [stop_at i] (checked before the
   i-th request) says to stop. It keeps one connection alive, or re-opens
   it every [reconnect_every] requests. Returns the samples and the wall
   time. *)
let load ?reconnect_every d corpus (answers : answers) seq ~stop_at =
  let start = now_ns () in
  let conn = ref None and on_conn = ref 0 in
  let drop () = Option.iter close !conn; conn := None in
  let rec go i samples =
    if stop_at i then samples
    else begin
      let index = seq.(i mod Array.length seq) in
      (match reconnect_every with Some k when !on_conn >= k -> drop () | _ -> ());
      let t0 = now_ns () in
      let status, body =
        try
          let c =
            match !conn with
            | Some c -> c
            | None ->
              let c = connect d.port in
              conn := Some c;
              on_conn := 0;
              c
          in
          incr on_conn;
          exchange c (post corpus.(index).body)
        with Unix.Unix_error _ | End_of_file | Failure _ -> drop (); (0, "")
      in
      let latency_s = seconds_since t0 in
      let digest = Digest.string body in
      if not (Hashtbl.mem answers (index, status, digest)) then
        Hashtbl.replace answers (index, status, digest) body;
      go (i + 1) ({ index; status; digest; latency_s } :: samples)
    end
  in
  let samples = go 0 [] in
  drop ();
  (samples, seconds_since start)

(* Every corpus item once, least popular first, so the hot items are the
   most recently used when the measured load starts. *)
let warm d corpus answers =
  let seq = Array.init (Array.length corpus) (fun i -> Array.length corpus - 1 - i) in
  fst (load d corpus answers seq ~stop_at:(fun i -> i >= Array.length seq))

(* --- verification ----------------------------------------------------------- *)

let member_number name json =
  match Json.member name json with Some (Json.Number f) -> Some f | _ -> None

let instances_of_json json =
  match Json.member "instances" json with
  | Some (Json.List insts) ->
    List.map
      (fun inst ->
        let spec =
          match Json.member "module" inst with
          | Some (Json.String m) -> Library.find_exn Verify.library m
          | _ -> failwith "instance without a module"
        in
        let ops =
          match Json.member "ops" inst with
          | Some (Json.List ops) ->
            List.map
              (function
                | Json.List [ Json.Number op; Json.Number start ] ->
                  (int_of_float op, int_of_float start)
                | _ -> failwith "malformed op binding")
              ops
          | _ -> failwith "instance without ops"
        in
        (spec, ops))
      insts
  | _ -> failwith "no instances"

(* One distinct answer to [it]: the status must agree with the in-process
   Explore.solve reference, a 200 body must carry that area and peak, and
   its binding must rebuild into a design that meets the requested T and
   P< and passes every lint. *)
let verify_answer it reference status body =
  let ( let* ) = Result.bind in
  match (status, reference) with
  | 200, Explore.Feasible { area; peak; _ } -> (
    match Json.parse body with
    | Error _ -> Error "unparsable 200 body"
    | Ok json -> (
      match instances_of_json json with
      | exception (Failure _ | Invalid_argument _) -> Error "malformed 200 body"
      | instances ->
        let* d =
          Verify.reassemble ~graph:it.graph ~time_limit:it.time_limit
            ~power_limit:it.power_limit instances
          |> Result.map_error (fun _ -> "served binding does not assemble")
        in
        let* () =
          if
            member_number "time_limit" json <> Some (float_of_int it.time_limit)
            || member_number "power_limit" json <> Some it.power_limit
          then Error "answer records limits other than the requested"
          else Verify.design ~time_limit:it.time_limit ~power_limit:it.power_limit d
        in
        let d_area = (Design.area d).Design.total and d_peak = Profile.peak (Design.profile d) in
        if member_number "area" json <> Some area || member_number "peak" json <> Some peak
        then Error "served area/peak differ from the in-process answer"
        else if d_area <> area || d_peak <> peak then
          Error "served binding differs from the in-process answer"
        else Ok (Feasible { area; digest = Verify.digest d })))
  | 422, (Explore.Infeasible _ | Explore.Pruned _) -> Ok No_design
  | (200 | 422), _ -> Error "status disagrees with the in-process answer"
  | 0, _ -> Error "connection failed"
  | s, _ -> Error (Printf.sprintf "status %d" s)

let verify corpus references answers samples tally quality =
  let verdicts = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (index, status, digest) body ->
      let it = corpus.(index) in
      let v =
        Result.bind (verify_answer it references.(index) status body) (fun answer ->
            Result.map (fun () -> answer) (record_answer quality ~key:it.key answer))
      in
      Hashtbl.replace verdicts (index, status, digest) v)
    answers;
  List.iter
    (fun s ->
      attempt tally;
      account tally
        (Result.map ignore (Hashtbl.find verdicts (s.index, s.status, s.digest))))
    samples

(* --- access log --------------------------------------------------------------- *)

(* (dur_ms, queue_ms option) of each POST /synth line, in log order. *)
let access_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Ok json when Json.member "path" json = Some (Json.String "/synth") ->
           Option.map
             (fun dur -> (dur, member_number "queue_ms" json))
             (member_number "dur_ms" json)
         | Ok _ | Error _ -> None)

let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l

(* --- the workload ----------------------------------------------------------- *)

let run cfg =
  let tally = tally () and quality = quality () in
  let log name = Filename.concat cfg.work_dir name in
  let corpus = make_corpus () in
  (* The reference answers, computed in-process before any daemon runs. *)
  let references =
    Pool.with_pool ~jobs:cfg.jobs (fun pool ->
        Pool.map pool
          (fun it ->
            Explore.solve ~library:Verify.library it.graph ~time_limit:it.time_limit
              ~power_limit:it.power_limit)
          (Array.to_list corpus))
    |> Array.of_list
  in
  let seq = zipf_sequence cfg.seed ~items:(Array.length corpus) ~length:100_000 in
  (* Set-up, eleven times: corpus generation and encoding, then a daemon
     started up to its listening line. The last daemon is kept. *)
  let current = ref None in
  let finish () = Option.iter stop !current; current := None in
  Fun.protect ~finally:finish @@ fun () ->
  let setup_s =
    median
      (List.init 11 (fun _ ->
           finish ();
           let d, t =
             timed (fun () ->
                 ignore (make_corpus ());
                 start cfg ~trace:false ~access_log:(log "access.jsonl"))
           in
           current := Some d;
           t))
  in
  let d = Option.get !current in
  let answers = Hashtbl.create 256 in
  let warm_samples = warm d corpus answers in
  if not cfg.trace then begin
    let load_start = now_ns () in
    let samples, wall =
      load d corpus answers seq ~stop_at:(fun _ ->
          seconds_since load_start >= cfg.seconds)
    in
    let rss = peak_rss_mb (Some d.pid) in
    finish ();
    verify corpus references answers (samples @ warm_samples) tally quality;
    let ms = List.map (fun s -> s.latency_s *. 1e3) samples in
    ( tally,
      quality,
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int (List.length samples) /. wall);
        ("latency_p50_ms", median ms);
        ("area_sum", area_sum quality);
        ("feasible_count", float_of_int (feasible_count quality));
        ("peak_rss_mb", rss);
      ] )
  end
  else begin
    (* Untraced for half the budget, then the same requests against a
       second, traced daemon. *)
    let t0 = now_ns () in
    let samples, untraced =
      load ~reconnect_every d corpus answers seq ~stop_at:(fun _ ->
          seconds_since t0 >= cfg.seconds /. 2.)
    in
    finish ();
    let requests = List.length samples in
    let traced_samples, layers =
      with_daemon cfg ~trace:true ~access_log:(log "access-traced.jsonl") (fun d ->
          let warm_traced = warm d corpus answers in
          let fetch path =
            match get d.port path with
            | 200, body -> body
            | s, _ -> failwith (Printf.sprintf "GET %s: status %d" path s)
          in
          let events () =
            match Event.of_chrome (fetch "/trace") with Ok evs -> evs | Error e -> failwith e
          in
          let registry () =
            match Json.parse (fetch "/metrics") with Ok j -> j | Error e -> failwith e
          in
          let cut = List.fold_left (fun m e -> max m (Event.end_ns e)) 0L (events ()) in
          let before = registry () in
          let traced_samples, traced =
            load ~reconnect_every d corpus answers seq ~stop_at:(fun i -> i >= requests)
          in
          let after = registry () in
          (* Only the measured requests: no warm-up, no scrapes. *)
          let events =
            List.filter
              (fun (e : Event.t) ->
                e.Event.ts_ns > cut
                && (e.Event.name <> "serve.request"
                   || List.assoc_opt "path" e.Event.args = Some "/synth"))
              (events ())
          in
          let lines = drop (Array.length corpus) (access_lines d.access_log) in
          ( warm_traced @ traced_samples,
            Layers.metrics
              {
                Layers.spans = Spans.of_events events;
                before;
                after;
                wall_s = traced;
                jobs = cfg.jobs;
                grid_points = 0;
                pruned = 0;
                request_ms = List.map fst lines;
                queue_ms = List.filter_map snd lines;
                overhead_ratio = traced /. untraced;
              } ))
    in
    verify corpus references answers (warm_samples @ samples @ traced_samples) tally quality;
    (tally, quality, layers)
  end
