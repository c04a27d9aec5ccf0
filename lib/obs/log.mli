(** Structured JSON-lines logging, one self-describing object per line.

    Built for machine consumers (access logs, slow-request logs shipped
    to a collector): every line is a strict JSON object with [ts]
    (UTC, RFC 3339), [level], [msg] and caller-supplied fields, so
    [jq]-style pipelines never need a parser beyond {!Json}. Output is
    always byte-clean — no ANSI escapes regardless of the {!Style}
    switch, honoring the repo-wide rule that piped/machine output never
    carries color.

    Loggers are mutex-protected (safe from handler sys-threads and pool
    domains) and flush per line, so a crash loses at most the line being
    written. *)

type level = Info | Warn | Error

val level_to_string : level -> string

type t

(** [create oc] logs to [oc] (not closed by {!close}). *)
val create : out_channel -> t

(** [open_file path] appends to [path]; ["-"] means stdout. {!close}
    closes the channel (unless it is stdout). *)
val open_file : string -> t

(** [log t lvl ?fields msg] writes one JSON line
    [{"ts":…,"level":…,"msg":…, <fields>}] and flushes. Field names
    [ts]/[level]/[msg] are reserved; caller fields follow them. *)
val log : t -> level -> ?fields:(string * Json.t) list -> string -> unit

(** [close t] flushes and closes an {!open_file} logger's channel. *)
val close : t -> unit
