(** Answer-size estimation for arbitrary twig patterns.

    Composes pairwise pH-joins (or no-overlap coverage joins) bottom-up
    along the pattern tree, maintaining for each partially-assembled
    sub-twig a {e view} keyed at its root predicate, per Fig. 10.  A view
    is sparse: it holds only the grid cells where participation is
    non-zero (O(g) of them by Theorem 1), in
    {!Position_histogram.nonzero} order, and for each such cell

    - its participation (estimated count of distinct nodes in the cell
      that take part in at least one sub-twig match), and
    - its join factor (matches per participating node),

    so that the sub-twig's match count is [Σ participation × join-factor].
    A join costs the views' non-zero cells, not the grid: a leaf takes its
    histogram's kept cells ({!Position_histogram.nonzero}); a pH-join
    with cached coefficients weighs the ancestor's cells alone; a
    coverage join walks the child's cells and their coverage rows and
    sums only at the ancestor view's cells.  The O(g²) passes left — a
    fresh coefficient pass over a composed or scaled view, and the
    coverage join's band sums — each run over one plain float array the
    cells are scattered into.  Only {!Child_join} still takes dense
    histograms.  Every sum adds the same non-zero terms in the same order
    as the dense composition, so estimates and trace steps are
    bit-identical to it.
    Joining a view with a child view updates both: via the balls-in-bins
    saturation formula (case 2) when the ancestor predicate has the
    no-overlap property, or by the paper's case-1 rule
    ([participation := estimate], join factor 1) otherwise.

    Parent-child edges are estimated as ancestor-descendant edges by
    default (the paper's scope).  Two extensions are available per
    {!child_mode}: scaling a [Child] edge by the global fraction of
    ancestor-descendant level pairs that are parent-child
    ({!Level_histogram}), or — sharper — re-weighting every cell pair by
    its own level-adjacency fraction ({!Child_join}, requires
    {!Level_position_histogram}s). *)

open Xmlest_histogram

open Xmlest_query

type catalog = {
  hist : Predicate.t -> Position_histogram.t;
      (** position histogram of a (possibly compound) predicate *)
  coverage : Predicate.t -> Coverage_histogram.t option;
      (** coverage histogram, for predicates with the no-overlap property *)
  level : Predicate.t -> Level_histogram.t option;
      (** level histogram, for [Level_scaled] child edges *)
  position_levels : Predicate.t -> Level_position_histogram.t option;
      (** per-cell level histogram, for [Cell_level_scaled] child edges *)
  desc_coefs : Predicate.t -> float array option;
      (** memoized {!Ph_join.descendant_coefficients} of the predicate's
          histogram (typically served by an {!Xmlest_histogram.Catalog});
          [None] disables the cached fast path for that predicate *)
  anc_coefs : Predicate.t -> float array option;
      (** memoized {!Ph_join.ancestor_coefficients}, same contract *)
}

type child_mode =
  | As_descendant  (** treat [/] as [//] — the paper's behavior *)
  | Level_scaled  (** scale the edge by the global level-adjacency fraction *)
  | Cell_level_scaled
      (** per-cell-pair level correction via {!Child_join}; falls back to
          [Level_scaled] when the needed histograms are missing or the
          edge uses the coverage path *)

type options = {
  direction : Ph_join.direction;  (** direction of primitive (overlap) joins *)
  use_no_overlap : bool;  (** consult coverage histograms (Sec. 4) *)
  child_mode : child_mode;  (** how to estimate parent-child edges *)
}

val default_options : options
(** Ancestor-based, no-overlap enabled, [As_descendant] child edges (the
    paper's configuration). *)

(** {1 The join step}

    Estimation is one join step folded over a pattern's edges.  A {!view}
    describes a sub-twig assembled so far, keyed at its root node: a
    {!leaf} is one node's catalog histogram, and {!join} adds one edge
    below the root.  {!estimate} builds a pattern's view bottom-up,
    joining each node's edges into its leaf in pattern order;
    {!Xmlest_optimizer.Optimizer} joins the same views by dynamic
    programming over node sets, each view once, so the two agree bit for
    bit on every sub-twig. *)

type view
(** Estimated participation and join factor per grid cell of one
    sub-twig.  Once a composed view (anything but a {!leaf}) has run its
    descendant coefficient pass as the lower end of an unscaled pH-join
    edge, it keeps the array for later unscaled joins; a scaled edge
    always runs a fresh pass. *)

val leaf : catalog -> Predicate.t -> view
(** The one-node sub-twig: the predicate's catalog histogram, every cell
    with join factor 1. *)

val join : ?options:options -> catalog -> view -> Pattern.axis -> view -> view
(** [join acc axis child]: the sub-twig of [acc] with [child]'s sub-twig
    hung below [acc]'s root by an [axis] edge — by coverage when [acc]'s
    root predicate has a coverage histogram (and [use_no_overlap]), by a
    per-cell-pair {!Child_join} for a [Child] edge under
    [Cell_level_scaled] when both level-position histograms exist, by
    pH-join otherwise.  A leaf descendant of an unscaled edge asks the
    catalog for its memoized coefficients on every join. *)

val total : view -> float
(** Estimated number of matches of the view's sub-twig. *)

val estimate : ?options:options -> catalog -> Pattern.t -> float
(** Estimated number of matches of the pattern: {!total} of the view
    folded from its leaves. *)

type step = {
  subtwig : string;  (** rendering of the sub-twig assembled so far *)
  method_used : string;  (** "pH-join", "coverage", "child-cell-level", ... *)
  estimate : float;  (** estimated match count after this join *)
}

val estimate_trace :
  ?options:options -> catalog -> Pattern.t -> float * step list
(** Like {!estimate}, also returning one record per pairwise join in
    evaluation order — the estimator's "explain" output. *)
