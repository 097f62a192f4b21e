(** Estimation for patterns whose ancestor predicate has the no-overlap
    property (Sec. 4, Fig. 10).

    When P1-nodes cannot nest, each descendant joins with at most one
    P1-node, so the pair count equals the number of {e covered}
    descendants.  The coverage histogram supplies, per descendant cell, the
    fraction of its population lying under P1-nodes (broken down by the
    covering P1 cell); the estimate applies those fractions to the P2
    histogram, assuming P2-nodes distribute like the overall population
    within a cell. *)

open Xmlest_histogram

type t = float

val estimate :
  desc:Position_histogram.t -> coverage:Coverage_histogram.t -> float
(** Simple two-node pattern: [Σ over descendant cells of
    HistP2(cell) × total_coverage(cell)]. *)

val estimate_cells_by_ancestor :
  coverage:Coverage_histogram.t ->
  desc_weight:Position_histogram.t ->
  anc_scale:(i:int -> j:int -> float) ->
  Position_histogram.t
(** Fig. 10's ancestor-based pattern-count estimate: per ancestor cell
    [(i, j)], the weighted descendants it covers —
    [anc_scale i j × Σ over covered cells (m, n) of
    Cvg((m,n) by (i,j)) × desc_weight(m, n)].
    [anc_scale] carries the JnFct of the ancestor view times its
    participation ratio (coverage-update case 1). *)

val participation_saturation : n:float -> m:float -> float
(** Fig. 10's participation estimate, case 2 (balls-in-bins): given [n]
    ancestor nodes in a cell and [m] joinable descendants below them, the
    expected number of ancestors participating in at least one pair:
    [n × (1 - ((n-1)/n)^m)]; 0 when [n = 0]. *)
