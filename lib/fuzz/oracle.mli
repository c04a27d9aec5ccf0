(** The differential oracles the fuzzer checks every synthesized design
    against. A design that the engine claims is feasible must:

    - {b lint}: produce zero [Error]-severity diagnostics under
      {!Pchls_analysis.Analysis.run_all};
    - {b latency}: finish within the {e requested} time limit;
    - {b power}: never draw more than the {e requested} per-cycle power cap
      (note: requested, not the design's own claimed cap — a buggy engine
      may claim a different cap than it was asked for, which internal
      validation cannot see);
    - {b exact}: spend at least as much functional-unit area as the exact
      branch-and-bound optimum ({!Pchls_compat.Exact.min_area}) for the
      design's own schedule — a heuristic that beats the optimum has
      mis-counted sharing. Checked only on instances small enough for the
      exponential search; larger instances are counted as {e skipped}, not
      as passes;
    - {b preflight}: the static bounds ({!Pchls_preflight.Preflight}) must
      bracket the engine's actuals — [latency_lb <= makespan],
      [demand_peak <= peak], [energy_lb <= energy],
      [fu_area_lb <= FU area <= fu_area_ub] — every certificate must
      re-verify from scratch, and preflight must never prove infeasible an
      instance the engine just synthesized (sub-code ["false_prune"]: the
      sweep-pruning safety property). On engine-infeasible instances only
      the certificate re-verification applies.

    An engine exception on a valid instance is its own failure class
    ({b crash}). *)

type exact_status =
  | Checked  (** the exact oracle ran and agreed *)
  | Skipped  (** instance above [exact_max_vertices] — not a pass *)
  | Not_run  (** synthesis was infeasible; nothing to compare *)

type failure = {
  oracle : string;
      (** ["crash" | "lint" | "latency" | "power" | "exact" | "preflight"] *)
  code : string;  (** stable sub-code, e.g. ["SCH005"], ["false_prune"] *)
  detail : string;  (** human-readable, single line *)
}

type verdict = Pass of { feasible : bool; exact : exact_status } | Fail of failure

(** [bucket f] is the stable corpus bucket id ["<oracle>-<code>"], with any
    character outside [A-Za-z0-9_-] replaced by [_]. Failures that shrink
    to the same (oracle, code) pair land in the same bucket. *)
val bucket : failure -> string

(** [exact_fu_floor ~library d] is the exact minimum functional-unit area
    achievable for [d]'s own schedule: the one exact pricer,
    {!Pchls_preflight.Preflight.exact_fu_area}, over every library module
    and each operation's execution interval in [d]'s schedule. Vertices are
    [d]'s operations, two operations are compatible when their execution
    intervals are disjoint and some library module implements both kinds,
    and a clique costs the cheapest module implementing every member's
    kind. [None] when the design has more than [max_vertices] (default
    [12]) operations. *)
val exact_fu_floor :
  ?max_vertices:int ->
  library:Pchls_fulib.Library.t ->
  Pchls_core.Design.t ->
  float option

(** [check ~library inst] synthesizes [inst] and runs every oracle, in the
    order crash, lint, latency, power, exact, preflight; the first violated
    oracle wins. [exact_max_vertices] is {!exact_fu_floor}'s cutoff, and
    also the preflight analysis's exact-area cutoff. *)
val check :
  ?exact_max_vertices:int ->
  library:Pchls_fulib.Library.t ->
  Sampler.instance ->
  verdict
