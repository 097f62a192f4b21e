(** Node predicates (the paper's base predicate set P, Sec. 2 and 3.4).

    Two families matter in practice and drive the evaluation:
    element-tag predicates ([Tag]) and element-content predicates
    ([Text_eq], [Text_prefix], ...).  Compound predicates are boolean
    combinations of these; [True] matches every node and is the population
    predicate used to normalize compound-histogram estimation. *)

open Xmlest_xmldb

type t =
  | True  (** every node *)
  | Tag of string  (** element tag equality, e.g. [elementtag = faculty] *)
  | Text_eq of string  (** exact match on the node's text content *)
  | Text_prefix of string  (** text starts with, e.g. cite text ["conf"] *)
  | Text_suffix of string
  | Text_contains of string
  | Attr_eq of string * string  (** attribute equality *)
  | Level_eq of int  (** node depth equality (extension) *)
  | And of t * t
  | Or of t * t
  | Not of t

val eval : t -> Document.t -> Document.node -> bool

val matching_nodes : Document.t -> t -> Document.node array
(** All nodes satisfying the predicate, in document order (sorted by start
    position).  A predicate that pins a tag, as {!target} defines it (a
    [Tag], a conjunction with a conjunct that pins one, a disjunction whose
    branches all pin the same tag), is evaluated on that tag's nodes only,
    through the store's tag index, instead of on every node. *)

val name : t -> string
(** Canonical, human-readable key, e.g. ["tag=faculty"],
    ["tag=cite&prefix=conf"].  Stable across equal predicates; used to key
    histogram catalogs. *)

val tag_of : t -> string option
(** The tag a node must carry to satisfy the predicate, if the predicate
    constrains the tag ([Tag] or a conjunction containing one).  Stored
    summaries record it, so it pins no disjunction, unlike {!target}. *)

val disjoint : t -> t -> bool
(** [true] only when the two predicates provably select disjoint node sets
    (both pin the element tag, to different tags).  A [false] answer means
    "unknown", not "overlapping". *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Compilation}

    Every predicate is lowered once into a closure over a node's parts —
    interned tag id, attributes, trimmed character data, level — the view
    both construction sources have of a node (the document store, and a
    SAX close event).  Tag comparisons become integer comparisons over
    the source's tag ids (constant [false] for tags the source has no id
    for), substring patterns precompute their KMP failure table, and
    boolean structure is composed into the closure — per-node evaluation
    never re-walks the AST.  [compile doc p] feeds that closure a
    document node's parts and agrees with [eval p] on every node
    (property-tested). *)

type compiled = Document.node -> bool

val compile : Document.t -> t -> compiled

(* lint: allow unused-export — tests derive the expected dispatch_evals from it *)
val target : Document.t -> t -> [ `Any | `Tag of int | `Nothing ]
(** Where the predicate can match, as the dispatch table pins it:
    [`Tag id] when it pins an element tag that occurs in the document
    (the interned id), [`Nothing] when the pinned tag does not occur at
    all, [`Any] otherwise.  A predicate pins a tag when it is a [Tag], a
    conjunction with a conjunct that pins one, or a disjunction whose
    branches all pin the same tag (so a same-tag {!any_of} is pinned,
    though {!tag_of} is [None] for it). *)

(** {2 Dispatch table}

    A batch of predicates bucketed by pinned tag id: each node only
    decides the predicates pinned to its tag, plus the unpinned ones —
    predicates pinned to other tags cost nothing.  Among a tag's pinned
    predicates, those that reduce on its nodes to a text-equality test
    ([Text_eq], [Tag t] conjoined with such a test, a disjunction of
    them — the per-year predicates and their decade {!any_of}s) form the
    tag's family: one hash probe with the node's text finds every member
    it satisfies.  The others run their compiled closure.  This is the
    inner loop of both summary constructions: the fused sweep dispatches
    by the document's tag id, the streamed build resolves an element's
    tag name to its id once, with {!tag_id}, at the element's open event.
    The table also knows, per id, whether any predicate decided there
    reads the node's text ({!needs_text}), so a streamed source assembles
    text only for the elements whose predicates read it. *)

type dispatch

val dispatch : Document.t -> t list -> dispatch
(** Compile the predicates and bucket them by {!target}.  Predicates with
    target [`Nothing] are never evaluated (they match no node). *)

val dispatch_node :
  dispatch -> Document.t -> Document.node -> f:(int -> unit) -> unit
(** Decide the relevant predicates on one node, calling [f] with the
    list index (into the [dispatch] input list) of every predicate that
    matches, each once.  Indices are reported in bucket order: the
    node's tag's pinned closures in input order, then its family's hits
    in ascending index order, then unpinned predicates in input order. *)

val dispatch_detached : t list -> dispatch
(** A document-free table: tag ids are numbered from the tag names the
    predicates mention.  For sources that see nodes as parts only. *)

val tag_id : dispatch -> string -> int
(** The id a node of this tag name is dispatched by: one lookup in a
    table of the tag names the predicates mention, [-1] for any other
    name (only unpinned predicates run on such a node). *)

val needs_text : dispatch -> int -> bool
(** [needs_text d id]: some predicate that {!dispatch_id} decides on a
    node of tag id [id] reads the node's text — a pinned one, its tag's
    family, or an unpinned one.  When [false], the [text] passed to
    {!dispatch_id} for such a node is never read. *)

val dispatch_id :
  dispatch ->
  tag:int ->
  attrs:(string * string) list ->
  text:string ->
  level:int ->
  f:(int -> unit) ->
  unit
(** {!dispatch_node} over a node given by its parts — tag id (from
    {!tag_id}, or the document's), attributes, trimmed character data,
    level — as a SAX source carries them; decides exactly as {!eval} on
    the materialized node.  Allocates no closure. *)

val dispatch_evals : dispatch -> int
(** (node, predicate) decisions made by {!dispatch_node} and
    {!dispatch_id} since the table was built — the builds' eval
    counter.  A family probe counts one decision per family member, so
    the count is that of running every relevant predicate's closure. *)

(** {2 Substring matching}

    KMP substring search with a precomputed failure table — the matcher
    behind [Text_contains], built once per compiled predicate. *)

module Substring : sig
  type t

  val make : string -> t
  (** Precompute the failure table for a pattern ([O(pattern)]). *)

  val matches : t -> string -> bool
  (** [matches (make sub) s] iff [sub] occurs in [s]; the empty pattern
      matches everything.  [O(s)] per call. *)
end

(** {2 Serialization}

    A small s-expression syntax, used by the summary persistence layer:
    [true], [(tag "faculty")], [(text "1984")], [(prefix "conf")],
    [(suffix "x")], [(contains "x")], [(attr "k" "v")], [(level 3)],
    [(and P Q)], [(or P Q)], [(not P)].  Strings are double-quoted with
    backslash escapes. *)

val to_syntax : t -> string

val of_syntax : string -> (t, string) result
(** Inverse of {!to_syntax}. *)

(** {2 Convenience constructors} *)

val tag : string -> t
val text_prefix : tag:string -> string -> t
(** [Tag tag && Text_prefix p] — the paper's cite-prefix predicates. *)

val text_eq : tag:string -> string -> t
(** [Tag tag && Text_eq v] — the paper's per-year predicates. *)

val tag_predicates : Document.t -> t list
(** One [Tag] predicate per distinct element tag of the document, in
    {!Document.distinct_tags} order: the default predicate set of the CLI
    and the shell. *)

val any_of : t list -> t
(** Disjunction of a non-empty list — the paper's compound decade
    predicates (e.g. 1990's = year=1990 ∨ ... ∨ year=1999). *)
