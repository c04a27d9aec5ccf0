(** Content-addressed memoization of synthesis results.

    A store maps [(fingerprint, time_limit, power_limit)] keys to a
    {!summary} of the engine outcome: either the area/peak plus the exact
    instance binding (enough to rebuild the full design via
    [Design.assemble]), or the infeasibility reason. Two tiers:

    - an in-memory hash table, always on;
    - an optional on-disk tier under [dir/v2/] (one small text file per
      entry, written atomically via {!Pchls_resil.Atomic_io}). Entries
      whose header does not match the current format version, or that fail
      to parse, are quarantined to [<entry>.bad] and counted in
      [stats.corrupt] — a cache never errors, it only misses. A disk I/O
      error (or an armed ["cache.read"] / ["cache.write"] fault point)
      permanently disables the disk tier for this store with a one-shot
      stderr warning ([stats.degraded]); the memory tier keeps working, so
      synthesis degrades to cache-off instead of aborting.

    All operations are thread-safe: a store may be shared by the worker
    domains of a {!Pchls_par.Pool} sweep. Hits, misses and stores are
    counted ({!stats}); under an installed trace recorder each {!find}
    also records a ["cache.outcome"] instant naming the tier that
    answered (["memory"], ["disk"]) or ["miss"], and the entry key. *)

type key = {
  fingerprint : Fingerprint.t;
      (** digest of graph + library + cost model + policy *)
  time_limit : int;
  power_limit : float;
}

type summary =
  | Feasible of {
      area : float;
      peak : float;
      instances : (Pchls_fulib.Module_spec.t * (int * int) list) list;
          (** module spec and its [(operation, start time)] bindings — the
              exact shape [Design.assemble] consumes *)
    }
  | Infeasible of string  (** the engine's infeasibility reason *)

type stats = {
  hits : int;  (** total across tiers, [memory_hits + disk_hits] *)
  misses : int;
  stores : int;
  memory_hits : int;  (** hits satisfied by the in-memory table *)
  disk_hits : int;  (** hits satisfied (and promoted) from the disk tier *)
  corrupt : int;  (** entries quarantined to [*.bad] on parse failure *)
  degraded : bool;  (** disk tier disabled after an I/O error *)
  evictions : int;  (** memory entries dropped by the [mem_entries] cap *)
}

type t

(** [create ?dir ?mem_entries ()] makes a store; [dir] enables the on-disk
    tier (the versioned subdirectory is created on demand).

    [mem_entries] caps the in-memory tier: once more than that many
    distinct keys are resident, the least recently used entry is evicted
    (counted in [stats.evictions] and the [cache.evictions] metric) so a
    long-running process — the [pchls serve] daemon in particular — holds
    a bounded working set; its recency bookkeeping stays within a small
    multiple of the resident entries however many hits it serves. Evicted
    entries are only forgotten by the memory tier; with a disk tier they
    remain on disk and re-promote on the next lookup. Omitted means
    unbounded, as before.

    @raise Invalid_argument when [mem_entries < 1]. *)
val create : ?dir:string -> ?mem_entries:int -> unit -> t

(** [in_memory ()] is [create ()]. *)
val in_memory : unit -> t

(** [dir t] is the versioned on-disk directory, if the disk tier is on. *)
val dir : t -> string option

(** [find t key] looks the key up in memory, then on disk (promoting disk
    hits to memory). Counts a hit (per tier) or a miss. *)
val find : t -> key -> summary option

(** [add t key summary] stores in memory and, when enabled, on disk.
    Counts a store. A disk write failure disables the disk tier
    ([stats.degraded]) and is otherwise ignored. *)
val add : t -> key -> summary -> unit

val stats : t -> stats

(** [size t] is the number of in-memory entries. *)
val size : t -> int

(** [clear t] drops every in-memory entry and deletes every on-disk entry,
    quarantined [.bad] ones included, also those an older format version
    left under a sibling [dir/v<n>/] (those directories go too once
    empty). Counters are not reset. *)
val clear : t -> unit

(** [disk_usage ~dir] is [(entries, bytes)] for the current-version tier
    under [dir]; [(0, 0)] when absent. *)
val disk_usage : dir:string -> int * int

val pp_stats : Format.formatter -> stats -> unit
