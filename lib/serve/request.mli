(** What a valid synthesis request is, defined once for the [pchls]
    command line and [pchls serve]: a graph, a latency bound T from 1 to
    {!max_time_limit} and a per-cycle power cap P< > 0 (or grids of them),
    a default-module policy and an optional anytime budget.

    Each check returns [Error reason] on a caller mistake, which the CLI
    reports as an argument error (exit 124) and the server as a 400. A
    reason about one value reads as a predicate (["must be >= 1, got 0"])
    that the caller prefixes with its own spelling of the field. *)

(** Where the graph comes from. [origin] prefixes a parse error: the file
    path on the CLI, the JSON field on the server. *)
type source =
  | Benchmark of string  (** a bundled {!Pchls_dfg.Benchmarks} graph *)
  | Dfg of { origin : string; text : string }
      (** {!Pchls_dfg.Text_format} text; the graph keeps its own name *)
  | Beh of { origin : string; name : string; text : string }
      (** a {!Pchls_lang} program, compiled under [name] *)

(** [benchmark name] is the bundled benchmark [name], with its name. *)
val benchmark : string -> (string * Pchls_dfg.Graph.t, string) result

(** [graph ~missing ~conflict sources] resolves the one source a request
    must give to a named graph; [missing] and [conflict] are the reasons
    when there is none or more than one. *)
val graph :
  missing:string ->
  conflict:string ->
  source list ->
  (string * Pchls_dfg.Graph.t, string) result

(** 10{^6}: the engine keeps about 86 bytes per cycle of T, so hal at
    this T takes about 1 s and 100 MB. *)
val max_time_limit : int

val time_limit : int -> (int, string) result

(** Accepts [infinity], which means unconstrained. *)
val power_limit : float -> (float, string) result

(** [power_range ~names ~from ~upto ~step] is [from], [from + step], ...
    up to [upto] (with a 1e-9 tolerance): [from] and [step] positive,
    [upto] finite, the range non-empty, and [step] at least one ulp of
    [upto + 1e-9], so every point advances. [names] spells [from] and
    [step].
    The points are produced on demand, so a caller that caps the range
    reads no more of it than it needs to refuse it. *)
val power_range :
  names:string * string ->
  from:float ->
  upto:float ->
  step:float ->
  (float Seq.t, string) result

(** [grid ~times ~powers] is the [times] × [powers] grid of a sweep or
    Pareto request, with the powers read into a list, when it holds at most
    10 000 points. It reads at most one point past the cap, so a range too
    fine to hold in memory is refused before it is built. *)
val grid :
  times:int list -> powers:float Seq.t -> (int list * float list, string) result

(** Policy names, in the order help texts list them. *)
val policies : (string * Pchls_core.Engine.policy) list

val policy : string -> (Pchls_core.Engine.policy, string) result
val deadline_ms : float -> (float, string) result
val max_iters : int -> (int, string) result

(** A request's anytime budget, before its clock starts. *)
type budget

(** [tighter a b] is the smaller of two optional deadlines; [None] is no
    limit. *)
val tighter : float option -> float option -> float option

(** [budget ?ceiling_ms ?deadline_ms ?max_iters ()] from checked values.
    [ceiling_ms] (the server's [--deadline-ms]) caps the deadline and is
    the default when the request sets none. *)
val budget :
  ?ceiling_ms:float -> ?deadline_ms:float -> ?max_iters:int -> unit -> budget

(** [signature b] is [b]'s part of a coalescing key: requests share an
    engine run only when their effective limits agree. *)
val signature : budget -> string

(** [start ?clamp_ms b] starts [b]'s clock, with the deadline tightened to
    at most [clamp_ms]; [None] when no limit is set. *)
val start : ?clamp_ms:float -> budget -> Pchls_resil.Budget.t option
