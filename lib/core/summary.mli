(** The summary catalog: the paper's data structure T' (Sec. 2).

    Holds, for a chosen set of base predicates over one document store:
    position histograms, coverage histograms for predicates with the
    no-overlap property, level histograms, and the population ([TRUE])
    histogram.  This is the surface a query optimizer (TIMBER, in the
    paper) consults: build it once, then estimate any twig pattern over
    the predicate set without touching the data again. *)

open Xmlest_xmldb
open Xmlest_query
open Xmlest_histogram
open Xmlest_estimate

type t

val build :
  ?grid:Grid.t ->
  ?grid_size:int ->
  ?grid_kind:[ `Uniform | `Equidepth ] ->
  ?with_levels:bool ->
  ?domains:int ->
  Document.t ->
  Predicate.t list ->
  t
(** Build summaries for the given base predicates ([grid_size] defaults to
    10, the paper's configuration).  [`Uniform] (default) uses equal-width
    buckets as in the paper; [`Equidepth] places bucket boundaries at
    quantiles of the base predicates' node positions, concentrating
    resolution where the catalog's elements live — the non-uniform grids
    flagged as future work in Sec. 7.  An explicit [?grid] overrides both
    and buckets on the given grid as-is (positions past its [max_pos]
    clamp into the last bucket) — this is how the maintenance tests
    compare an incrementally maintained summary against a same-grid
    rebuild of the edited document.  The no-overlap property is
    detected from the data, and coverage histograms are built exactly for
    the no-overlap predicates.  Level histograms (for the parent-child
    extension) are built when [with_levels] is true (default).

    Construction is {e fused}: the document is a record source — one
    pre-order pass giving each node's interval, level and matched base
    predicates, dispatched by the node's interned tag — and one pass of
    it fills every histogram, coverage entry and no-overlap flag at once.
    Equi-depth grids, whose boundaries need the matched positions first,
    take one more pass before it, which dispatches the predicates again.
    {!build_stream} runs the same passes over its spill.  The result is
    bit-identical to building each predicate's histograms separately
    with the histogram modules' own constructors — the per-predicate
    oracle in the test suite (property-tested).

    [?domains] (default 1) splits every pass by predicate: the unique
    predicates are dealt round-robin into [min domains p] subsets, and
    each subset's pass over the whole document runs on its own OCaml
    domain ({!Xmlest_parallel.Pool}), the first one also feeding the
    population histogram.  Every builder is fed by exactly one pass, so
    the result is {e bit-identical} — {!to_string}-equal — to the
    sequential build, with the same [predicate_evals], for every domain
    count and grid kind (property-tested). *)

(* lint: allow unused-export — named by the Streaming invariant *)
val build_stream :
  ?grid_size:int ->
  ?grid_kind:[ `Uniform | `Equidepth ] ->
  ?with_levels:bool ->
  (unit -> Sax.event option) ->
  Predicate.t list ->
  t
(** Out-of-core construction from a SAX event stream (e.g.
    [fun () -> Sax.next parser]): the document is never materialized.
    Interval positions are assigned exactly as [Document.of_elem] would
    (one global counter: start at open, end at close) and per-node state
    — start, end, level, predicate match bitmask — spills to a temp file
    in post-order.  Read backwards, ancestors first, the spill is the
    record source of the same passes {!build} runs over the document,
    through the same builders and nearest-ancestor resolver
    ({!Interval_ops.resolve}), so the fill holds O(element depth)
    pending state per predicate however wide the document is (a
    regression test pins the peak heap).  Because every builder is an
    order-insensitive exact accumulator, the result is {e bit-identical}
    — {!to_string}-equal — to {!build} over the parsed document, for
    both grid kinds (property-tested).  The returned summary has no attached document
    ({!document} is [None]), like one loaded from disk.

    Raises [Failure] on an empty stream and on an unbalanced one (a
    [Close] without a matching [Open], or elements still open when the
    stream ends).

    Passes ({!build_stats}): 2 for uniform grids (parse+spill, replay),
    3 for equi-depth (plus one spill scan for quantile positions). *)

val build_stream_file :
  ?grid_size:int ->
  ?grid_kind:[ `Uniform | `Equidepth ] ->
  ?with_levels:bool ->
  string ->
  Predicate.t list ->
  t
(** {!build_stream} over an XML file, parsed incrementally with
    {!Sax.of_channel}. *)

(** {2 Construction observability} *)

type build_stats = {
  path : [ `Fused | `Streamed ];
  passes : int;
      (** Full traversals of the document: 1 for a fused uniform build,
          2 for fused equi-depth; for the streamed path, passes over the
          input or the spill file (2 uniform, 3 equi-depth). *)
  predicate_evals : int;
      (** Individual compiled-predicate evaluations (dispatch count).  A
          fused equi-depth build dispatches in both its passes, so it
          spends twice a uniform build's; the streamed build dispatches
          once, while parsing. *)
  build_time : float;  (** Wall-clock seconds spent in [build]. *)
}

val stats : t -> build_stats option
(** Construction counters of this summary; [None] for summaries loaded
    from disk. *)

val grid : t -> Grid.t

val document : t -> Document.t option
(** The document the summary describes; [None] for summaries loaded from
    disk.  Until the first {!apply} it is the document given to {!build},
    which maintenance never mutates.  From then on it is the summary's
    private working copy, and every further {!apply} advances that same
    store in place: {!Document.copy} it to keep a revision.  (After an
    [apply] whose policy rebuilt the summary, the next [apply] takes a
    fresh working copy and leaves the previous one as it was.)  It is not a snapshot, since a caller
    that reads it before every update would then pay a copy of the
    document per update. *)

val predicates : t -> Predicate.t list
(** The base predicates, in build order, duplicates included.  On a
    reopened store this adopts every section first. *)

val histogram : t -> Predicate.t -> Position_histogram.t
(** Histogram of a predicate.  Base predicates are served from the catalog;
    boolean combinations are estimated from their parts via
    {!Xmlest_estimate.Compound} (with the population histogram as
    normalizer); other unknown predicates are built from the document on
    first use and cached. *)

val coverage : t -> Predicate.t -> Coverage_histogram.t option

(* lint: allow unused-export — a Fused-build oracle accessor *)
val level : t -> Predicate.t -> Level_histogram.t option

(* lint: allow unused-export — a Fused-build oracle accessor *)
val population : t -> Position_histogram.t

(* lint: allow unused-export — a Fused-build oracle accessor *)
val has_no_overlap : t -> Predicate.t -> bool
(** The predicate's no-overlap status as recorded in the catalog (false for
    predicates outside it). *)

val node_count : t -> Predicate.t -> float
(** Total of the predicate's histogram (exact for catalog predicates). *)

val catalog : t -> Twig_estimator.catalog
(** View as the estimator's lookup interface.  Its [desc_coefs]/[anc_coefs]
    fields serve memoized pH-join coefficient arrays from the summary's
    {!hist_catalog}, so repeated estimates over the same predicates skip
    the O(g²) coefficient passes. *)

val hist_catalog : t -> Catalog.t
(** The histogram catalog backing this summary: every position histogram
    (base predicates and those built on demand), keyed by
    {!Xmlest_query.Predicate.name}, with memoized pH-join coefficients and
    hit/miss/recompute counters.  On a reopened store it holds the
    sections adopted so far. *)

val estimate : ?options:Twig_estimator.options -> t -> Pattern.t -> float
(** Estimate the answer size of a twig pattern. *)

val estimate_batch :
  ?options:Twig_estimator.options ->
  ?domains:int ->
  t ->
  Pattern.t list ->
  float list
(** Estimate a workload of patterns, fanned across [?domains] (default 1)
    OCaml domains, each with its own scratch coefficient catalog and
    level-position cache so the memoized state is never shared.  Returns
    the estimates in input order, bit-identical to
    [List.map (estimate t)] (property-tested).  With [domains <= 1] this
    {e is} [List.map (estimate t)]; with more, scratch work (memoized
    coefficients, on-demand histograms) is discarded rather than written
    back to the summary's shared caches.  With more than one domain, a
    reopened store adopts every section before any domain starts, so the
    domains only read the summary. *)

val check : t -> Pattern.t -> Pattern_check.diag list
(** Static analysis of the pattern against this summary
    ({!Xmlest_query.Pattern_check}).  When the summary still carries its
    document, the document's tag set is the complete schema, so a pattern
    tag outside it is {!Pattern_check.Unsat}; for loaded summaries only
    the catalog predicates' tags are known and unknown tags are
    {!Pattern_check.Warn}. *)

val estimate_checked :
  ?options:Twig_estimator.options ->
  t ->
  Pattern.t ->
  float * Pattern_check.diag list
(** {!check}, then {!estimate} — unless the diagnostics prove the pattern
    unsatisfiable, in which case the estimate is exactly [0.0] and the
    pH-join machinery is skipped. *)

val estimate_string : ?options:Twig_estimator.options -> t -> string -> float
(** Parse an XPath-like query ({!Xmlest_query.Pattern_parser}) and estimate
    it.  Raises [Failure] on a parse error. *)

val explain :
  ?options:Twig_estimator.options ->
  t ->
  Pattern.t ->
  float * Twig_estimator.step list
(** The estimate plus a join-by-join trace (sub-twig, method, running
    estimate) — what a TIMBER EXPLAIN would print. *)

val storage_bytes : t -> int
(** Total sparse storage of all histograms in the catalog — the summary
    size the paper reports (≈0.7% of the data for DBLP).  On a reopened
    store this adopts every section first. *)

(** {2 Incremental maintenance}

    A summary built over a document can follow that document's evolution
    without a full rebuild per edit: {!apply} funnels {!Update.t} ops
    through the {!Xmlest_maintain.Apply} engine.  Every edit class is
    applied {e exactly}: deletions, inserts anywhere in the document and
    text/attribute replacements leave {!to_string} bit-identical to a
    fresh {!build} of the edited document on the same grid
    (property-tested for each class and for mixed streams, on uniform and
    equi-depth grids, for sequential and parallel-built summaries).

    The first [apply] takes one {!Document.copy} of the summary's
    document and edits that copy in place from then on (see
    {!document}), so an update costs the nodes it touches, not a copy of
    the document.  It makes no pass over the document: a summary built
    over a document keeps its build's accumulators, and maintenance edits
    those and finishes them as the build does.

    Maintenance mutates position histograms in place, bumping their
    version counters, so memoized pH-join coefficients in {!hist_catalog}
    invalidate automatically — the next estimate recomputes them.  An
    on-demand histogram (see {!histogram}), whether built before the
    first [apply] or after it, stays bit-identical to a build on the
    edited document.  The no-overlap flag follows the exact nesting-pair
    count. *)

module Update = Xmlest_maintain.Update
module Staleness = Xmlest_maintain.Staleness

val apply : ?policy:Staleness.policy -> t -> Update.t list -> unit
(** Apply an update stream in order and maintain every histogram, then
    consult [policy] (default [`Never]; [`Always] rebuilds from the
    updated document: the grid is re-derived at the same size and kind,
    histograms and the coefficient catalog are replaced and the
    maintenance counters reset).  Raises [Failure] when the summary carries no
    document (loaded from disk) and [Invalid_argument] on out-of-range
    node references.  A rejected update ends the batch: the updates
    before it stay applied, and the summary (its document, histograms and
    {!staleness} counters) describes exactly that prefix when the
    exception propagates. *)

val staleness : t -> Staleness.report option
(** Updates and touched nodes since the last (re)build; [None] when no
    update was ever applied (no maintenance engine exists yet). *)

(** {2 Persistence}

    A summary is a database statistic: it outlives the process that built
    it.  The [.xsum] store is its one on-disk format.  A reopened summary
    estimates exactly like the original but carries no document and no
    stats, so unknown leaf predicates cannot be built on demand
    ({!histogram} raises [Failure] for them), {!check} only warns about
    unknown tags, and {!apply} raises [Failure]. *)

val to_string : t -> string
(** Canonical printer: the grid, the population histogram and, per
    predicate, the position histogram, coverage entries and level counts,
    every float at [%.17g].  Two summaries print equal exactly when they
    are bit-identical, which is how the tests and benches compare builds.
    It is not a file format: nothing parses it back.  On a reopened store
    this adopts every section first. *)

exception Corrupt_store of string
(** A section of a reopened store (or its population) breaks the format:
    runs out of order, off the grid or below its diagonal, counts that
    are not non-negative integers, a coverage fraction outside
    [\[0, 1\]], a predicate syntax that does not parse or names another
    predicate.  Raised by the first operation that adopts the section: a
    lookup of its predicate ({!histogram}, {!coverage}, {!level},
    {!estimate}, ...), or any whole-summary operation ({!predicates},
    {!to_string}, {!save_store}, {!storage_bytes}, a
    multi-domain {!estimate_batch}). *)

val save_store : t -> string -> unit
(** Persist to the [.xsum] format ({!Store}): a short header, a
    length-prefixed section table (per predicate: name, tag, syntax,
    no-overlap flag, where its parts lie) and a payload of non-zero
    content only — histogram cells as (cell, count) runs, coverage as its
    entries, level counts.  Totals, coverage populations and per-cell
    coverage totals are not stored but recomputed on load.  Every float
    is written bit-exactly, so the reopened summary is
    {!to_string}-identical and estimates bit-identically
    (property-tested). *)

val load_store : string -> (t, string) result
(** Open a [.xsum] store: read the file once, check its header and
    section table, index the sections by predicate name.  No predicate is
    parsed and no histogram is built: each section is decoded, validated
    and registered the first time a lookup names its predicate, so an
    open costs the table, and an estimate the sections it touches.  The
    result carries no document and no stats, and its coefficient catalog
    starts cold: histogram version counters start at 0, so no stale
    memoized pH-join arrays can be mistaken for fresh ones.

    A missing, truncated or malformed file, header or table is an
    [Error], never an exception.  A malformed section is
    {!Corrupt_store} at its first use; estimates that never touch it are
    unaffected, and equal — bit for bit, in any order of adoption — to
    those of the summary that was saved. *)
