(** Parent-child join estimation with per-cell level corrections — an
    extension beyond the paper (which defers `/` edges to its tech report).

    The pH-join weight of a cell pair counts {e ancestor-descendant}
    couples; for a parent-child edge only the couples whose depths differ
    by exactly one qualify.  Given {!Level_position_histogram}s for both
    predicates, each cell pair's contribution is scaled by the fraction of
    its level pairs that are adjacent:

    estimate = Σ over cell pairs (A, D) of
      weight(A, D) × count_anc(A) × count_desc(D) × child_fraction(A, D)

    With one position per bucket the level distributions are point masses,
    the fractions become 0/1 indicators, and the estimate is exact
    (property-tested).  Runs over the non-zero cells only: O(k_anc × k_desc)
    with k = O(g) by Theorem 1. *)

open Xmlest_histogram

val estimate_cells :
  anc:Position_histogram.t ->
  desc:Position_histogram.t ->
  anc_levels:Level_position_histogram.t ->
  desc_levels:Level_position_histogram.t ->
  unit ->
  Position_histogram.t
(** Per-ancestor-cell estimate of parent-child pairs. *)
