(* Shared plumbing for the workloads: clocks and order statistics, the
   per-operation correctness tally, the design-quality accumulator (area,
   feasible count, digest), and peak-RSS probes. *)

module Json = Pchls_obs.Json
module Clock = Pchls_obs.Clock

type config = {
  workload : string;
  seed : int;
  seconds : float;  (** measurement budget of one run *)
  trace : bool;
  pchls : string;  (** the pchls executable, for the serve daemon *)
  work_dir : string;  (** scratch space inside the checkout *)
  jobs : int;  (** threads, connections and pool domains: nproc *)
}

let now_ns = Clock.now_ns
let seconds_since t0 = Clock.elapsed_ns ~since:t0 /. 1e9

(* [timed f] runs [f] and returns its result with the wall seconds spent. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* The one order statistic: the nearest-rank [p]-th percentile, 0 for an
   empty list (a layer a workload does not exercise reads 0). *)
let percentile p xs =
  let a = List.sort Float.compare xs |> Array.of_list in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

(* [repeat_median k f] runs [f] k times and returns the last result with the
   median wall time — how every workload measures its set-up. *)
let repeat_median k f =
  let rec go i acc last =
    if i = k then (Option.get last, median acc)
    else
      let r, t = timed f in
      go (i + 1) (t :: acc) (Some r)
  in
  go 0 [] None

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some pid -> Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* --- correctness tally ---------------------------------------------------- *)

(* Every operation a workload issues is attempted once and fails at most
   once; the reasons are kept (with counts) for the record line. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  reasons : (string, int) Hashtbl.t;
}

let tally () = { attempted = 0; failed = 0; reasons = Hashtbl.create 8 }

let attempt t = t.attempted <- t.attempted + 1

let fail t reason =
  t.failed <- t.failed + 1;
  Hashtbl.replace t.reasons reason
    (1 + Option.value (Hashtbl.find_opt t.reasons reason) ~default:0)

(* One operation's verdict: [Ok] or a failure reason. *)
let account t = function Ok () -> () | Error reason -> fail t reason

let tally_json t =
  let reasons =
    Hashtbl.fold (fun r n acc -> (r, n) :: acc) t.reasons []
    |> List.sort compare
    |> List.map (fun (r, n) -> (r, Json.Number (float_of_int n)))
  in
  Json.Obj
    [
      ("attempted", Json.Number (float_of_int t.attempted));
      ("failed", Json.Number (float_of_int t.failed));
      ( "fail_ratio",
        Json.Number (float_of_int t.failed /. float_of_int (max 1 t.attempted))
      );
      ("reasons", Json.Obj reasons);
    ]

(* --- design quality --------------------------------------------------------- *)

(* One entry per distinct input (a synthesis, a grid point, a corpus item),
   so quality never depends on how many operations fit in the run. Repeats
   of an input must produce the same answer: a different digest is a
   failure. *)
type answer = Feasible of { area : float; digest : string } | No_design

type quality = (string, answer) Hashtbl.t

let quality () : quality = Hashtbl.create 64

let record_answer (q : quality) ~key answer =
  match Hashtbl.find_opt q key with
  | None ->
    Hashtbl.replace q key answer;
    Ok ()
  | Some prev when prev = answer -> Ok ()
  | Some _ -> Error "answer differs between repeats of the same input"

let area_sum (q : quality) =
  Hashtbl.fold
    (fun _ a acc -> match a with Feasible { area; _ } -> acc +. area | No_design -> acc)
    q 0.

let feasible_count (q : quality) =
  Hashtbl.fold
    (fun _ a n -> match a with Feasible _ -> n + 1 | No_design -> n)
    q 0

(* The combined digest: every feasible input's Report.csv digest, in key
   order, hashed together. *)
let design_digest (q : quality) =
  Hashtbl.fold
    (fun key a acc ->
      match a with Feasible { digest; _ } -> (key, digest) :: acc | No_design -> acc)
    q []
  |> List.sort compare
  |> List.map (fun (k, d) -> k ^ "=" ^ d)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex
