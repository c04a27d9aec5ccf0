module Metrics = Pchls_obs.Metrics

let m_injected = Metrics.counter "resil.faults_injected"

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected name -> Some ("injected fault: " ^ name)
    | _ -> None)

let known =
  [
    "engine.power-check";
    "cache.read";
    "cache.write";
    "pool.worker";
    "explore.point";
    "serve.accept";
    "serve.handler";
    "serve.shed";
    "serve.hang";
  ]

(* --- spec parsing ------------------------------------------------------- *)

let parse spec =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun w -> warnings := w :: !warnings) fmt in
  let arms =
    String.split_on_char ',' spec
    |> List.filter_map (fun entry ->
           let entry = String.trim entry in
           if entry = "" then None
           else
             let name, prob, seed =
               match String.split_on_char ':' entry with
               | [ n ] -> (n, Some 1., Some 0)
               | [ n; p ] -> (n, float_of_string_opt p, Some 0)
               | [ n; p; s ] -> (n, float_of_string_opt p, int_of_string_opt s)
               | _ ->
                 warn "PCHLS_CHAOS: malformed entry %S (want name[:prob[:seed]])"
                   entry;
                 (entry, None, None)
             in
             let name = String.trim name in
             if not (List.mem name known) then begin
               warn "PCHLS_CHAOS: unknown fault point %S (known: %s)" name
                 (String.concat ", " known);
               None
             end
             else
               match (prob, seed) with
               | Some p, Some s -> Some (name, (Float.min 1. (Float.max 0. p), s))
               | None, _ ->
                 warn "PCHLS_CHAOS: bad probability in entry %S" entry;
                 None
               | _, None ->
                 warn "PCHLS_CHAOS: bad seed in entry %S" entry;
                 None)
  in
  (arms, List.rev !warnings)

(* --- active configuration ----------------------------------------------- *)

(* [set] overrides the environment (like the old Chaos switch); the parsed
   form is cached per distinct spec so arming stays one option compare per
   call, and warnings print once per spec change. *)
let override : string option Atomic.t = Atomic.make None
let set spec = Atomic.set override spec

type compiled = {
  spec : string option;
  arms : (string * (float * int)) list;
}

let compiled : compiled Atomic.t = Atomic.make { spec = None; arms = [] }

let current_spec () =
  match Atomic.get override with
  | Some _ as o -> o
  | None -> Sys.getenv_opt "PCHLS_CHAOS"

let config () =
  let spec = current_spec () in
  let c = Atomic.get compiled in
  if c.spec = spec then c.arms
  else begin
    let arms, warnings =
      match spec with None -> ([], []) | Some s -> parse s
    in
    (* Only the winning compiler prints, so a racing pool of domains does
       not duplicate the warnings. *)
    if Atomic.compare_and_set compiled c { spec; arms } then
      List.iter (fun w -> Printf.eprintf "pchls: warning: %s\n%!" w) warnings;
    arms
  end

let armed name = List.mem_assoc name (config ())

(* --- deterministic draws ------------------------------------------------ *)

(* Draws not pinned to a key get a process-wide sequence number, so a
   single-threaded campaign is reproducible run to run. *)
let draws = Atomic.make 0

(* 64-bit FNV-1a over (name, seed, key, salt): stable across OCaml
   versions and platforms, unlike [Hashtbl.hash]. *)
let hash64 ~seed ~key ~salt name =
  let h = ref 0xcbf29ce484222325L in
  let mix byte =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (byte land 0xff))) 0x100000001b3L
  in
  String.iter (fun c -> mix (Char.code c)) name;
  let mix_int v =
    for shift = 0 to 7 do
      mix (v lsr (8 * shift))
    done
  in
  mix_int seed;
  mix_int key;
  mix_int salt;
  !h

(* Top 53 bits as a uniform draw in [0, 1). *)
let draw ~seed ~key ?(salt = 0) name =
  Int64.to_float (Int64.shift_right_logical (hash64 ~seed ~key ~salt name) 11)
  /. 9007199254740992.

let fires ?key ?(salt = 0) name =
  match List.assoc_opt name (config ()) with
  | None -> false
  | Some (prob, seed) ->
    let hit =
      if prob >= 1. then true
      else if prob <= 0. then false
      else
        let key =
          match key with
          | Some k -> k
          | None -> Atomic.fetch_and_add draws 1
        in
        draw ~seed ~key ~salt name < prob
    in
    if hit then Metrics.incr m_injected;
    hit

let inject ?key ?salt name =
  if fires ?key ?salt name then raise (Injected name)
