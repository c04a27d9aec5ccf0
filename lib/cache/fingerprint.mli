(** Content-addressed fingerprints of synthesis inputs.

    A fingerprint is a stable hex digest of the {e content} of a synthesis
    input — the graph structure, the FU library, free-form context strings —
    such that equal content yields equal digests across processes and runs.
    Fingerprints key the {!Store} synthesis cache.

    {!graph} is canonical: it is invariant under any renumbering of node
    ids (only structure, kinds, node names and the graph name matter), so a
    graph rebuilt with fresh ids hits the same cache entries. *)

type t = string
(** A hex digest. *)

(** [of_string s] digests an arbitrary string, e.g. a serialized engine
    policy or cost model. *)
val of_string : string -> t

(** [combine parts] digests a list of fingerprints (or raw strings) into
    one key; order matters. *)
val combine : t list -> t

(** [graph g] is a canonical digest of [g]: node kinds, node names, the
    graph name and the edge structure, but {e not} the numeric node ids.

    Computed by canonical colour refinement over an ordered partition of
    the nodes. The classes start as the distinct (kind, name) pairs in
    sorted order; a node's label is the position where its class starts.
    Refinement then splits classes by how many successors and how many
    predecessors their nodes have in a splitter class, and lays each
    class's fragments out in its own place by ascending count, so labels
    depend on structure only. Each initial class is a splitter once; after
    that only fragments of split classes are, and of a class already used
    as one, all fragments but the largest. A node so lies in O(log n)
    splitters, however deep a symmetric graph is. Refinement stops when
    no splitter is left or every node has a class of its own.
    There is no round cap: the result is the stable partition (what
    Weisfeiler–Lehman rounds reach when a round splits nothing). The
    digest covers the graph name, the node and edge counts, the table of
    (kind, name) classes with their sizes (names length-prefixed) and the
    sorted edges labelled with the final labels; no node id enters it.

    Renumbering node ids therefore never changes the digest, while
    changing a kind, a name, or rewiring an edge does. Graphs whose nodes
    all have distinct (kind, name) pairs cost one sort and no
    refinement. *)
val graph : Pchls_dfg.Graph.t -> t

(** [library lib] digests the module specs in registration order (order
    matters: the engine breaks ties towards earlier registration). *)
val library : Pchls_fulib.Library.t -> t

(** [float_repr f] is the exact textual representation used inside
    fingerprints (hexadecimal notation — no rounding). *)
val float_repr : float -> string
