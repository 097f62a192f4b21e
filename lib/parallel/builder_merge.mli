(** Per-chunk partial state of a partitioned summary sweep, and its merge.

    One chunk of a partitioned fused construction accumulates, for every
    base predicate, the same streaming builders the sequential sweep uses
    — position, level and coverage — plus the shared population builder,
    the dense population counts, per-predicate match counts, the nesting
    flags of the seeded interval streams and the chunk's predicate-eval
    count.  {!merge} folds the partials {e in chunk-index order} into one,
    which is the whole determinism argument: every underlying builder
    merge is exact on the integer unit counts involved, so the merged
    state is bit-identical to one uninterrupted sweep no matter how the
    chunks were scheduled.  The streamed build's replay fills a single
    partial of the same shape, so both builds finish it the same way. *)

open Xmlest_histogram

type partial = {
  p_hists : Position_histogram.builder array;  (** per predicate *)
  p_levels : Level_histogram.builder array option;
      (** per predicate; [None] when the build skips level histograms *)
  p_coverage : Coverage_histogram.builder option array;
      (** per predicate; [None] where a schema override rules coverage out *)
  p_pop : Position_histogram.builder;  (** the population ([TRUE]) feed *)
  p_populations : float array;  (** dense per-cell node counts *)
  p_counts : int array;  (** per-predicate match counts *)
  p_nesting : bool array;
      (** per predicate: an in-chunk match had a strict set-ancestor *)
  mutable p_evals : int;  (** compiled-predicate evaluations *)
}

val merge : partial array -> partial
(** Fold the later partials into the first, left to right (chunk-index
    order), and return it.  The array must be non-empty and uniformly
    shaped: same predicate count, same grid, levels and per-predicate
    coverage present in all or none — anything else raises
    [Invalid_argument].  The first element is mutated in place; later
    elements must not be used afterwards. *)
