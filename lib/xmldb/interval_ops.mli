(** Operations on document-order (start-position sorted) node arrays. *)

val has_nesting : Document.t -> Document.node array -> bool
(** [has_nesting doc nodes] is [true] iff some node of [nodes] is an
    ancestor of another node of [nodes].  [nodes] must be sorted by start
    position (as returned by {!Document.nodes_with_tag}).  A predicate whose
    node set has no nesting has the paper's {e no-overlap} property. *)

val count_nesting_pairs : Document.t -> Document.node array -> int
(** Number of (ancestor, descendant) pairs within [nodes]; 0 iff the set has
    the no-overlap property. *)

val max_nesting_depth : Document.t -> Document.node array -> int
(** Size of the largest chain of mutually nested nodes (1 for a non-empty
    no-overlap set, 0 for an empty set). *)

(** {2 Streaming sweep}

    The incremental form of the ancestor sweep, for callers that traverse
    the document once and maintain many node sets side by side (the fused
    summary construction).  Feed every node in document order with a flag
    saying whether it belongs to the set; the stream maintains the stack of
    set nodes whose intervals are still open and reports, per node, its
    nearest {e strict} set-ancestor. *)

type stream

val stream : Document.t -> stream
(** A fresh sweep state for one node set over the given document. *)

val feed : stream -> Document.node -> in_set:bool -> Document.node
(** [feed s v ~in_set] must be called for every node in document order
    (strictly increasing start positions).  Returns [v]'s nearest strict
    set-ancestor among the nodes fed so far with [in_set:true], or [-1] if
    it has none.  When [in_set] is true, [v] is pushed onto the open stack
    (after the ancestor is reported, so a set node never covers itself) and
    the stream's nesting flag is raised if [v] itself has a set-ancestor.

    Feeding only the set's own nodes (all with [in_set:true]) is exactly
    the classic sweep, so {!has_nesting} is implemented on top of this. *)

val nesting_seen : stream -> bool
(** [true] iff some fed [in_set] node had a strict set-ancestor — the
    negation of the no-overlap property for the fed set. *)
