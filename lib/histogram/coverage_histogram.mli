(** Coverage histograms for no-overlap predicates (Sec. 4.2).

    For predicate P (whose satisfying nodes do not nest), the coverage
    [Cvg_P\[i\]\[j\]\[m\]\[n\]] is the fraction of {e all} nodes in grid
    cell [(i, j)] that are descendants of some P-node lying in grid cell
    [(m, n)].  Because P-nodes are disjoint, a node has at most one P
    ancestor, so fractions for distinct [(m, n)] add up to the cell's total
    covered fraction.

    Only cells along the "border" of a P-node's region have fractional
    coverage — Theorem 2 bounds the number of partial (strictly between 0
    and 1) entries by O(g); the test suite verifies this. *)

open Xmlest_xmldb
open Xmlest_query

type t

val build : Document.t -> grid:Grid.t -> Predicate.t -> t
(** Build by a single pass over the document, assigning every node to the
    cell of its nearest P-ancestor (if any).  Intended for predicates with
    the no-overlap property; if P-nodes do nest, the innermost P ancestor
    is used and the result is a best-effort approximation. *)

val grid : t -> Grid.t

(** {2 Streaming construction}

    The accumulation behind {!build}, exposed so that one shared sweep
    (either summary build) can drive many coverage builders at once.
    Feed every node that has a nearest strict P-ancestor, in any order:
    the counts are exact integers, merged per covering cell at {!finish},
    so every feed order of the same nodes yields a bit-identical
    histogram. *)

type builder

val builder : Grid.t -> builder

val feed : builder -> covered:int -> covering:int -> unit
(** Record one node in dense cell [covered] whose nearest strict
    P-ancestor lies in dense cell [covering]. *)

val add : builder -> covered:int -> covering:int -> float -> unit
(** [add b ~covered ~covering d] adds the signed count [d] to the nodes
    of dense cell [covered] whose nearest strict P-ancestor lies in dense
    cell [covering]: maintenance removes a node with [-1.0].  Every
    pair's net count must be non-negative when {!finish} runs. *)

val finish : builder -> populations:float array -> t
(** Freeze, normalizing counts by the per-cell population (the TRUE
    histogram counts, dense).  Pairs with a net count of zero are left
    out, so a builder edited by {!add} finishes bit-identical to a fresh
    one fed only the net counts.  The builder stays usable.  Raises
    [Invalid_argument] on a population array of the wrong length. *)

val total_coverage : t -> i:int -> j:int -> float
(** Fraction of cell [(i, j)]'s population covered by any P-node. *)

val rows : t -> int array * int array * float array
(** The covering cells of every covered cell, as compressed rows:
    [(row_off, covering, frac)], where the entries of the covered cell
    [c] (a dense index, {!Grid.index}) are
    [k = row_off.(c) .. row_off.(c + 1) - 1], each a covering cell
    [covering.(k)] (dense) and the fraction [frac.(k)] of [c]'s
    population it covers, in ascending covering cell order.  The arrays
    are the histogram's own: read them, never write them. *)

val partial_entries : t -> int
(** Entries whose fraction is strictly between 0 and 1 (Theorem 2: O(g)). *)

val storage_bytes : t -> int
(** 10 bytes per stored (covered cell, covering cell) pair with non-zero
    fraction. *)

(** {2 Persistence support} *)

val fold_entries :
  t -> init:'a -> f:('a -> covered:int -> covering:int -> float -> 'a) -> 'a
(** Fold over all stored (covered cell, covering cell, fraction) triples;
    cells are dense row-major indices. *)

(* lint: allow unused-export — the Fused-build oracle compares coverage through it *)
val populations : t -> float array
(** Copy of the per-cell population counts (dense): the TRUE histogram
    counts used as the fraction denominators. *)

val of_parts :
  grid:Grid.t ->
  populations:float array ->
  entries:(int * int * float) list ->
  t
(** Rebuild from parts: [(covered, covering, fraction)] triples
    with dense cell indices.  Raises [Invalid_argument] on a population
    array of the wrong length or out-of-range cell indices. *)
