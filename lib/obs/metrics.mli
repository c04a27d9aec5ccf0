(** A process-wide registry of counters, gauges and fixed-bucket
    histograms for the synthesis engine.

    Metrics are get-or-create by name ([counter "engine.backtracks"]
    returns the same counter everywhere) and update via [Atomic], so they
    are safe to bump from the worker domains of a {!Pchls_par.Pool} —
    concurrent increments never lose updates. Updates allocate nothing;
    registration (first use of a name) takes a registry lock.

    Naming convention: [<subsystem>.<what>[_<unit>]], e.g.
    [engine.backtracks], [pasap.offset_delays], [cache.hit.memory],
    [pool.task_wait_ns]. Durations are nanoseconds and end in [_ns]. See
    docs/OBSERVABILITY.md for the full catalogue. *)

type counter
type gauge
type histogram

(** [counter name] registers (or finds) the counter. Raises
    [Invalid_argument] if [name] is already a different metric kind. *)
val counter : string -> counter

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** [histogram ~buckets name] — [buckets] are ascending upper bounds; an
    observation [v] lands in the first bucket with [v <= bound], or in the
    implicit overflow bucket past the last bound. Re-registering with
    different buckets raises [Invalid_argument]. *)
val histogram : buckets:float list -> string -> histogram

val observe : histogram -> float -> unit

(** [time h f] runs [f] and observes its wall-clock duration in
    nanoseconds. *)
val time : histogram -> (unit -> 'a) -> 'a

(** Default duration buckets, 1 µs to 10 s in decades (values in ns). *)
val ns_buckets : float list

type hist_snapshot = {
  bounds : float list;  (** ascending upper bounds *)
  counts : int list;  (** same length; per-bucket (not cumulative) *)
  overflow : int;  (** observations above the last bound *)
  count : int;  (** total observations *)
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

(** [snapshot ()] — every registered metric, sorted by name. *)
val snapshot : unit -> (string * value) list

(** [reset ()] zeroes all values; registrations survive. *)
val reset : unit -> unit

(** [dump ()] — an aligned text table of {!snapshot}. Zero-valued metrics
    are included, so the catalogue is always visible. *)
val dump : unit -> string

(** [to_json ()] — the snapshot as one JSON object keyed by metric name;
    counters are integers, gauges numbers, histograms
    [{"count","sum","overflow","buckets":[{"le","n"}…]}]. Printed by
    {!Json.to_string}, so every number reads back as the exact double. *)
val to_json : unit -> string

(** [to_prometheus ()] — the snapshot in Prometheus text exposition
    format (version 0.0.4): dotted registry names sanitized to
    [pchls_<name>] with dots as underscores, counters suffixed [_total],
    histograms as cumulative [_bucket{le="…"}] series ending at
    [le="+Inf"] plus [_sum] and [_count], each family preceded by its
    [# TYPE] line. Served by [pchls serve] at [GET /metrics] under
    [Accept: text/plain]. *)
val to_prometheus : unit -> string

(** [validate_prometheus text] — a promtool-style grammar check over
    exposition text (no external dependency): metric/label name syntax,
    quoted-and-escaped label values, float sample values, [# TYPE] lines
    that are unique and precede their samples, and histogram coherence
    (cumulative non-decreasing buckets ending at [le="+Inf"] whose value
    equals [_count]). Returns the number of sample lines. CI scrapes
    [GET /metrics] and gates on this via [pchls metrics validate]. *)
val validate_prometheus : string -> (int, string) result
