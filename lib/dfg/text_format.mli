(** Plain-text serialisation of data-flow graphs.

    The format is line-oriented; comments start with [#] and blank lines are
    ignored:

    {v
    graph hal
    node 0 x input
    node 1 y input
    node 6 m1 mult
    edge 0 6
    edge 1 6
    v}

    Node kinds use the names/symbols accepted by {!Op.of_string}. The
    [graph] line is optional and defaults the name to ["unnamed"]; at most
    one is allowed. All {!Graph.create} validation applies on top of the
    syntactic checks here.

    Lines end at ['\n']. A line's words are what remains after trimming
    the characters [String.trim] strips (so a CR before the LF goes) and
    splitting at each space, empty words dropped: a tab inside a line is
    part of a word. Ids and edge endpoints are read by [int_of_string_opt],
    so signed, [0x] and [_]-separated forms are accepted. *)

(** [to_string g] serialises; [of_string (to_string g)] reconstructs a graph
    equal to [g] up to node ordering. *)
val to_string : Graph.t -> string

(** [of_string text] parses in one pass over [text], reporting the first
    offending line on error ([line N: ...]); only a text whose every line
    parses reaches {!Graph.create}, whose first error is then the answer. *)
val of_string : string -> (Graph.t, string) result
