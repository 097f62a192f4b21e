(** Position histograms (Sec. 3.1) — the paper's central summary structure.

    For a predicate P, cell [(i, j)] counts the nodes satisfying P whose
    start position falls in bucket [i] and end position in bucket [j].
    Counts are stored as floats so that derived histograms (compound
    predicates, intermediate twig estimates) fit the same type.

    By Lemma 1 the populated cells of a real data histogram form a sparse
    "staircase": a non-zero cell [(i, j)] forbids cells strictly inside and
    strictly outside its interval band, which bounds the number of non-zero
    cells by O(g) (Theorem 1, verified in the test suite). *)

open Xmlest_xmldb
open Xmlest_query

type t

val build : Document.t -> grid:Grid.t -> Predicate.t -> t
(** Histogram of the nodes satisfying the predicate. *)

val create_empty : Grid.t -> t

(** {2 Streaming construction}

    The per-node feed used by the fused summary sweep: one shared document
    traversal drives many builders at once.  [feed_cell] adds a unit
    count without the per-call validation and version bump of {!add}
    (cells computed by {!Grid.cell_of_node} are always valid);
    [finish] totals the counts — bit-identical to the same sequence of
    {!add} calls, since unit counts are exact integers. *)

type builder

val builder : Grid.t -> builder

val feed_cell : builder -> int -> unit
(** Count one node whose dense cell index ({!Grid.index}) is already
    known — the fused sweep computes each node's cell once and feeds every
    predicate histogram from it. *)

val finish : builder -> t
(** Freeze into a histogram (version 0).  The builder must not be fed
    afterwards. *)

val of_nonzero : grid:Grid.t -> int array -> float array -> t
(** The inverse of {!nonzero}: the histogram whose non-zero cells are the
    given dense row-major indices ({!Grid.index}) with the given values,
    every other cell 0.  The total is the values' sum in index order,
    which for exact integer counts equals {!finish}'s total bit for bit.
    Version starts at 0, so caches keyed on {!version} (e.g. [Catalog]
    coefficient slots) cannot mistake it for an already-seen histogram.
    Raises [Invalid_argument] when the arrays differ in length or a cell
    is outside the grid or below the diagonal. *)

val grid : t -> Grid.t
val get : t -> i:int -> j:int -> float

val add : t -> i:int -> j:int -> float -> unit
(** Accumulate into a cell.  Raises [Invalid_argument] for cells outside
    the grid or below the diagonal ([i > j]): since [start < end] for
    every node, only upper-triangle cells are meaningful, and a
    below-diagonal write would inflate {!total} while staying invisible
    to {!iter_nonzero}.  Bumps {!version} and drops the kept non-zero
    cells ({!nonzero}). *)

val total : t -> float

val version : t -> int
(** Mutation counter: starts at 0 and is bumped by every {!add}.
    Consumers that memoize derived data (e.g. {!Catalog}'s pH-join
    coefficient arrays) compare versions to detect staleness. *)

val copy : t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** Cellwise combination; grids must be compatible. *)

(* lint: allow unused-export — the Estimator invariant's dense oracle scales with it *)
val scale : t -> float -> t

val iter_nonzero : t -> (i:int -> j:int -> float -> unit) -> unit

val nonzero_cells : t -> int
(** Number of cells with a non-zero count (Theorem 1 says O(g)). *)

val nonzero : t -> int array * float array
(** The non-zero cells in {!iter_nonzero} order (upper triangle,
    row-major): their dense row-major indices ({!Grid.index}) and their
    counts, in two arrays of equal length.  A cell is non-zero unless it
    is [±0.0]; a NaN cell counts.  The twig estimator's sparse views start
    from these.

    Every constructor ({!create_empty}, {!finish}, {!of_nonzero},
    {!build}, {!copy}, {!scale}, {!map2}) finds the cells once and keeps
    them with the histogram, so this is O(1) and returns the {e same}
    arrays on every call: they are shared, and the caller must not write
    to them.  {!add} drops the kept cells, and from then on each call
    scans the g² cells afresh into new arrays.  Nothing is written on
    this read path, so domains may call it on a shared histogram. *)

val storage_bytes : t -> int
(** Sparse storage footprint: 6 bytes per non-zero cell (two 2-byte
    bucket coordinates + a 2-byte count), matching the accounting behind
    Figs. 11-12. *)

val pp_heatmap : Format.formatter -> t -> unit
(** ASCII density plot of the grid: rows are start buckets, columns end
    buckets; [.]/[o]/[O]/[#] mark increasing shares of the total count
    ([#] >= 10%).  When the total is zero or negative (possible for derived
    histograms, e.g. a {!map2} difference), shares are taken against the
    largest cell magnitude instead. *)
