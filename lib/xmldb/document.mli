(** Interval-labeled document store.

    Compiles an {!Elem.t} tree into a compact array-backed store.  Every
    node carries a numeric [start]/[end] interval assigned by a
    depth-first traversal: a node's interval strictly contains the
    intervals of all of its descendants, so

    - [u] is an ancestor of [v]  iff  [start u < start v && end v < end u].

    Both endpoints are drawn from one global counter ([start] on entry,
    [end] on exit), so all positions are distinct, [start < end] for every
    node, and intervals of distinct nodes never share an endpoint.  This is
    the numbering scheme of Sec. 3.1 of the paper.

    Nodes are identified by their pre-order index [0 .. size-1]; a node's
    subtree occupies the contiguous index range
    [v .. subtree_last v].

    A store is mutable: the edits at the end of this interface change it
    in place, shifting the labels past the edit rather than copying the
    store.  A caller that needs a fixed revision takes a {!copy} first.
    An array handed out by {!nodes_with_tag} is a snapshot: it describes
    the store until the next insert or delete, and that edit does not
    update it. *)

type t

type node = int
(** Pre-order index of a node within the store. *)

val of_elem : Elem.t -> t
(** Compile a single document.  The root element becomes node [0].
    Positions are stored in 32 bits: raises [Invalid_argument] when the
    document's [max_pos], [2 * size - 1], would pass [Int32.max_int]
    (more than [2^30] nodes). *)

val copy : t -> t
(** An independent store with the same contents: edits to either leave the
    other unchanged.  O(size), with no slack capacity and no freed payload
    slots: the copy holds texts and attributes in node order, like a
    freshly compiled store. *)

val size : t -> int
(** Number of nodes. *)

val max_pos : t -> int
(** Largest assigned position value.  For a freshly compiled store this is
    [2 * size - 1]; after edits ({!delete_subtree} preserves surviving
    labels, leaving holes) positions are merely distinct and bounded by
    it, with [max_pos >= 2 * size - 1]. *)

(** {2 Per-node accessors}

    Each raises [Invalid_argument] on a negative node, or one past the
    capacity of the store's columns (never smaller than {!size}). *)

val tag : t -> node -> string
val tag_id : t -> node -> int
val text : t -> node -> string
val attrs : t -> node -> (string * string) list
val start_pos : t -> node -> int
val end_pos : t -> node -> int

val level : t -> node -> int
(** Depth of the node; the store's root (node 0) has level 0. *)

val parent : t -> node -> node
(** Parent index, or [-1] for the root. *)

val subtree_last : t -> node -> node
(** Index of the last node (in pre-order) of [v]'s subtree; [v] itself for a
    leaf.  Subtree of [v] = indices [v .. subtree_last v]. *)

val subtree_size : t -> node -> int

(** {2 Structure queries} *)

val is_ancestor : t -> anc:node -> desc:node -> bool
(** Strict ancestorship, by interval containment. *)

val iter : t -> (node -> unit) -> unit
(** Iterate over all nodes in pre-order. *)

(** {2 Tag index} *)

val distinct_tags : t -> string list
(** Distinct tags in the store, sorted. *)

val nodes_with_tag : t -> string -> node array
(** Indices of nodes carrying the given tag, in document order (hence
    sorted by start position).  Empty array for unknown tags.  The
    returned array is shared with the store — do not mutate.  Each tag's
    array is collected in O(size) on its first lookup and kept until an
    insert or delete drops the index; an array handed out before such an
    edit is a snapshot that keeps describing the revision it was taken
    from. *)

val lookup_tag_id : t -> string -> int option
(** Intern lookup; [None] if the tag does not occur. *)

val num_tags : t -> int
(** Number of distinct interned tags; valid tag ids are
    [0 .. num_tags - 1]. *)

(** {2 Edits}

    In-place edit helpers backing the maintenance subsystem
    ([lib/maintain]).  Deletions are {e label-preserving}: surviving nodes
    keep their start/end positions and [max_pos] is unchanged, so position
    holes appear where the subtree used to sit; the tail's node indices
    close the gap.  Insertions shift every position at or after the
    insertion locus right by [2 * k] (where [k] is the inserted subtree's
    node count) and label the new subtree densely at the locus, growing
    [max_pos] by [2 * k].

    The structure and label columns hold one 4-byte field per node, with
    slack capacity that grows geometrically.  They are stored so that a
    node's fields do not change when it moves to another index (extents,
    parents and ends relative to the node), so the nodes past an edit
    move by one memmove per column.  Beyond that, an edit walks the
    ancestor chain of the edit point and the following siblings along it,
    and an insert adds [2 * k] to the start of every node past the point:
    the one per-node loop left.  An [index] below 0 or at least
    [subtree_size parent - 1], the most children [parent] can have,
    appends without looking at the children; any other index walks the
    children up to it.  Texts and attributes sit in payload
    slots that never move; a node reaches its slot through a slot column
    that moves with the others.  A delete frees its nodes' slots and drops
    their strings, an insert reuses freed slots before it grows the
    payload, and {!replace_text}/{!replace_attrs} write through the slot.
    A store that was never inserted into or deleted from has slot = node
    index and keeps no slot column; its first insert or delete builds
    one. *)

val delete_subtree : t -> node -> unit
(** Remove the subtree rooted at the node.  Raises [Invalid_argument] for
    node [0] (the store root) or an out-of-range index, leaving the store
    unchanged. *)

val insert_subtree : t -> parent:node -> index:int -> Elem.t -> node
(** Insert the element as the [index]-th child of [parent] (shifting later
    siblings right); any [index] outside the current child range appends as
    the last child.  Returns the inserted root's node index.  New tags are
    interned after the existing ids, so ids of existing tags are stable.
    Raises [Invalid_argument] when [parent] is out of range, or when
    [max_pos] would pass [Int32.max_int] (it grows by [2 * k] per insert
    and never shrinks), leaving the store unchanged. *)

val replace_text : t -> node -> string -> unit
(** Replace a node's text content.  Raises [Invalid_argument] on an
    out-of-range index. *)

val replace_attrs : t -> node -> (string * string) list -> unit
(** Replace a node's attribute list.  Raises [Invalid_argument] on an
    out-of-range index. *)
