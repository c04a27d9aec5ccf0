(** pchls's one JSON reader and writer, dependency-free.

    Every JSON document pchls writes is a [t] printed by {!to_string}:
    server responses, the access log, [check --json], [preflight --json],
    the metrics dump, Chrome trace dumps and the bench records. The reader
    is strict: exactly the RFC 8259 grammar, no trailing commas, no
    comments, no garbage after the top-level value. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in source order *)

(** [parse text] — [Error] carries a byte offset and reason. *)
val parse : string -> (t, string) result

(** [member key json] is the value of field [key] when [json] is an
    object that has one. *)
val member : string -> t -> t option

(** [to_string json] renders [json] compactly, on one line. Integral
    numbers print as plain digits below 1e15 and as [%.17g] above; any
    other finite number prints as the shortest of [%.15g]/[%.16g]/[%.17g]
    that reads back as the same double ([27.2], not
    [27.199999999999999]). So [parse (to_string j)] gives [j] back bit for
    bit for every value the parser can produce. Non-finite numbers, which
    RFC 8259 cannot express, render as [null]. *)
val to_string : t -> string
