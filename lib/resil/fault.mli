(** A generalized chaos-injection registry: named fault points with
    deterministic, seeded, probabilistic triggering.

    Production code marks its failure-prone seams with a {e fault point}
    name ({!known}); nothing fires unless the point is armed through the
    [PCHLS_CHAOS] environment variable or, in-process, {!set}. The spec is
    a comma-separated list of entries

    {v name[:probability[:seed]] v}

    e.g. [PCHLS_CHAOS="pool.worker:0.5:7,cache.write"]. Probability
    defaults to 1 (always fire) and is clamped to [[0, 1]]; the seed
    defaults to 0. Unknown fault-point names and malformed fields are
    diagnosed on stderr with the catalog of known points — a typo must
    never silently disarm a chaos campaign.

    Firing is a pure function of [(seed, name, key, salt)] via a 64-bit
    FNV-1a hash, so campaigns are reproducible: the same spec and keys
    fire the same faults whatever the domain interleaving. When [key] is
    omitted, a process-wide draw counter is used instead (each call is an
    independent, sequence-deterministic draw).

    Fault points in this codebase ({!known}):
    - ["engine.power-check"]:
      {!Pchls_core.Engine.run} silently drops the per-cycle power
      constraint end to end — only a differential oracle can notice;
    - ["cache.read"] / ["cache.write"]: {!Pchls_cache.Store} disk-tier
      I/O fails, exercising the degrade-to-cache-off path;
    - ["pool.worker"]: a {!Pchls_par.Pool.try_map} task crashes before
      running, exercising per-item isolation and retry;
    - ["explore.point"]: one {!Pchls_core.Explore.sweep} grid point
      crashes, exercising per-point failure reporting;
    - ["serve.accept"]: one [pchls serve] accept-loop iteration fails
      before handing the connection to a worker — the daemon must log and
      keep accepting, never die;
    - ["serve.handler"]: a [pchls serve] request handler crashes before
      dispatch, exercising the catch-all 500 response path (the
      connection still gets an answer and the daemon survives);
    - ["serve.shed"]: a [pchls serve] admission-queue offer is forced to
      fail, exercising the load-shed path (503 + [Retry-After]) without
      actually saturating the queue;
    - ["serve.hang"]: a [pchls serve] engine task hangs (cooperatively —
      it spins polling its budget) until its deadline passes, exercising
      the wind-down at the server's deadline ceiling. *)

(** Raised by {!inject}; carries the fault-point name. Registered with
    [Printexc] so reports read ["injected fault: pool.worker"]. *)
exception Injected of string

(** The catalog of fault points this build consults. *)
val known : string list

(** [armed name] — is the point listed in the active spec, whatever its
    probability? *)
val armed : string -> bool

(** [draw ~seed ~key ?salt name] — the deterministic uniform draw in
    [[0, 1)] behind {!fires}: the top 53 bits of the 64-bit FNV-1a hash
    of [(name, seed, key, salt)] ([salt] defaults to 0). Pure, so any
    seeded jitter can replay exactly. *)
val draw : seed:int -> key:int -> ?salt:int -> string -> float

(** [fires ?key ?salt name] — should this occurrence of the fault point
    trigger? [false] when unarmed; at probability 1 always [true];
    otherwise a deterministic draw on [(seed, name, key, salt)]. [salt]
    (default 0) distinguishes retry attempts of the same [key]. Every
    [true] bumps the [resil.faults_injected] counter. *)
val fires : ?key:int -> ?salt:int -> string -> bool

(** [inject ?key ?salt name] raises [Injected name] when {!fires}. *)
val inject : ?key:int -> ?salt:int -> string -> unit

(** [set spec] installs ([Some "a,b:0.5"]) or removes ([None]) an
    in-process override of [PCHLS_CHAOS]. Intended for tests;
    thread-safe. *)
val set : string option -> unit

(** [parse spec] — the compiled [(name, (probability, seed))] arms and
    the human-readable warnings the spec produced (unknown points, bad
    numbers). Exposed pure for regression tests; {!fires} parses and
    caches the active spec internally, printing each warning to stderr
    once per distinct spec. *)
val parse : string -> (string * (float * int)) list * string list
