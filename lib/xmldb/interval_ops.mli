(** Nearest-ancestor resolution over (start, end) interval labels.

    A node's ancestors are exactly the nodes whose interval strictly
    contains its own.  Visiting nodes ancestors-first — the document's
    pre-order, or the reverse of its post-order — one stack of open
    intervals per node set answers, at every node, its nearest strict
    ancestor in each set. *)

(** {2 Multi-set resolver}

    The one nearest-ancestor resolver of both summary builds and of the
    maintenance engine's initial sweep: many node sets are resolved side
    by side in one traversal, and a node costs only the sets that have an
    open match plus the sets it matches. *)

type resolver

val resolver : int -> resolver
(** [resolver p]: sets [0 .. p-1], none with an open match. *)

val resolve :
  resolver ->
  start_pos:int ->
  end_pos:int ->
  cell:int ->
  matched:int array ->
  nmatched:int ->
  on_nearest:(int -> covered:int -> covering:int -> unit) ->
  unit
(** Visit one node: its interval, an int carried with it ([cell]; the
    builds pass its grid cell), and the sets it belongs to,
    [matched.(0 .. nmatched-1)], each at most once.  Every node must be
    visited after all of its ancestors (any pre-order, e.g. the
    document's, or a reverse post-order).

    Calls [on_nearest u ~covered:cell ~covering] for every set [u] that
    has a strict ancestor of the node, with [covering] the [cell] of the
    nearest one, in no particular set order.  Then the node is opened in
    each of its sets, counting its strict ancestors there as nesting
    pairs, so a node never covers itself. *)

val nesting_pairs : resolver -> int -> int
(** [nesting_pairs r u]: the (ancestor, descendant) pairs within set [u]
    among the visited nodes; 0 iff they have the paper's {e no-overlap}
    property. *)

(** {2 One node set}

    [nodes] must be sorted by start position (as returned by
    {!Document.nodes_with_tag}). *)

val has_nesting : Document.t -> Document.node array -> bool
(** [true] iff some node of [nodes] is an ancestor of another.  A
    predicate whose node set has no nesting has the no-overlap
    property. *)
