(** The pH-join primitive estimation algorithm (Sec. 3.2, Figs. 6 and 9).

    Given position histograms for an ancestor predicate P1 and a descendant
    predicate P2, estimates the number of node pairs [(u, v)] with [u]
    satisfying P1, [v] satisfying P2 and [u] an ancestor of [v].

    Cell weighting (ancestor-based, for ancestor cell [(i, j)], following
    the pseudo-code of Fig. 9):
    - descendant cells strictly inside ([i < k <= l < j]): weight 1;
    - same start-bucket column ([k = i], [i < l < j]) and same end-bucket
      row ([l = j], [i < k <= j]): weight 1, except the diagonal corner
      cells [(i, i)] and [(j, j)] which weigh 1/2;
    - the same off-diagonal cell: 1/4; an on-diagonal ancestor cell joins
      only with its own cell, weight 1/12.

    The descendant-based variant weighs every ancestor cell strictly
    up-left (and the shared column/row, which legality arguments make
    certain) with 1 and the shared cell with 1/4 (1/12 on-diagonal).

    Each variant's coefficients take one sweep over the grid, O(g²) time
    and O(g) scratch besides the result: the histogram's non-zero cells
    are scattered into the result array and the sweep runs over it in
    place, reading plain floats.  Applying them costs one product per
    non-zero cell of the outer histogram ({!weigh}), which also yields the
    per-cell estimates twig composition needs. *)

open Xmlest_histogram

type direction = Ancestor_based | Descendant_based

val descendant_coefficients : Position_histogram.t -> float array
(** [descendant_coefficients histP2] gives, per cell [(i, j)], the expected
    number of P2-descendants of a node in that cell (dense row-major
    array) — Fig. 9's precomputable multiplicative coefficients. *)

val ancestor_coefficients : Position_histogram.t -> float array
(** Symmetric: expected number of P1-ancestors of a node per cell. *)

val descendant_coefficients_of_cells : Grid.t -> int array * float array -> float array
(** [descendant_coefficients_of_cells grid (at, v)]: the same pass over
    the histogram whose cells [at.(k)] (dense row-major indices) hold
    [v.(k)] and every other cell 0 — {!descendant_coefficients} of the
    histogram {!Position_histogram.of_nonzero} would build, without
    building it.  The twig estimator's composed views take it. *)

val ancestor_coefficients_of_cells : Grid.t -> int array * float array -> float array
(** Same for {!ancestor_coefficients}. *)

val cell_pair_weight :
  ?direction:direction ->
  anc:int * int ->
  desc:int * int ->
  unit ->
  float
(** The weight Fig. 9 assigns to a single (ancestor cell, descendant cell)
    pair: the expected number of joined pairs contributed per (ancestor
    node, descendant node) couple drawn from those cells.  Summing
    [weight × count_anc × count_desc] over all cell pairs reproduces
    {!estimate} (verified in the test suite); exposed for estimators that
    need per-pair adjustments, e.g. {!Child_join}. *)

val estimate :
  ?direction:direction ->
  anc:Position_histogram.t ->
  desc:Position_histogram.t ->
  unit ->
  float
(** Total estimated join size.  Default direction: [Ancestor_based]. *)

val weigh : coefs:float array -> int array * float array -> int array * float array
(** [weigh ~coefs (at, counts)]: the per-cell estimates of the sparse
    outer cells [(at, counts)] (row-major indices and non-zero counts, as
    {!Position_histogram.nonzero} gives them), [counts.(k) ×
    coefs.(at.(k))], with zero products dropped and the rest in input
    order.  The one count × coefficient loop behind {!estimate_with} and
    the twig estimator's joins; [coefs] as for {!estimate_with}. *)

val estimate_with :
  ?direction:direction ->
  coefs:float array ->
  anc:Position_histogram.t ->
  desc:Position_histogram.t ->
  unit ->
  float
(** Like {!estimate}, but with the O(g²) coefficient pass replaced by a
    precomputed array — [descendant_coefficients desc] when
    [Ancestor_based] (the default), [ancestor_coefficients anc] when
    [Descendant_based] — typically served from a
    {!Xmlest_histogram.Catalog}.  {!estimate} is this function over
    freshly computed coefficients, so the two are bit-identical.  Raises
    [Invalid_argument] when the array length does not match the grid. *)
