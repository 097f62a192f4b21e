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

val cover_weights :
  grid:Grid.t ->
  coverage:Coverage_histogram.t ->
  int array * float array ->
  int array ->
  float array
(** Fig. 10's covered weight, over sparse cells of [grid]:
    [cover_weights ~grid ~coverage (at, w) anc_at] gives, per ancestor cell
    [anc_at.(k)], [Σ over the descendant cells (m, n) of
    Cvg((m,n) by anc_at.(k)) × w(m, n)], where [(at, w)] are the
    weighted descendant cells in {!Position_histogram.nonzero} order and
    [anc_at] is ascending.  Entries whose fraction is not positive are
    skipped, and so is a covering cell outside [anc_at]; each sum adds its
    terms in descendant-cell order, then coverage-row order.  The time is
    O(Σ coverage-row lengths × log |anc_at|), with no grid-sized
    scratch.  The twig estimator scales each sum by the ancestor view's
    join factor times its participation ratio (coverage-update case 1).
    Raises [Invalid_argument] when the coverage histogram's grid is not
    compatible with [grid]. *)

val participation_saturation : n:float -> m:float -> float
(** Fig. 10's participation estimate, case 2 (balls-in-bins): given [n]
    ancestor nodes in a cell and [m] joinable descendants below them, the
    expected number of ancestors participating in at least one pair:
    [n × (1 - ((n-1)/n)^m)]; 0 when [n = 0]. *)
