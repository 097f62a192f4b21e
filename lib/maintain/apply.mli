(** Incremental statistics maintenance engine.

    Applies {!Update.t} edits to a live set of summary statistics without
    rebuilding them from the document.  Every edit class is exact: after
    each edit the maintained histograms are bit-identical to a same-grid
    rebuild on the edited document (the exact-stream property tests pin
    this for each class and for mixed streams).

    - {b Deletions} subtract the doomed subtree's cells from the same
      per-cell counts the streaming builders accumulate; survivors keep
      their positions (deletes are label-preserving).
    - {b Inserts}, at the end of the document or anywhere inside it, feed
      the new subtree at its true cells and re-key every survivor whose
      shifted start or end crossed into another cell: the parent's
      ancestor chain and the nodes past the insertion locus.  Such a
      crossing puts the shifted position less than [2k] past a grid
      boundary ([k] inserted nodes), so the movers are found by replaying
      the document's events over one window per boundary, not by
      comparing every survivor's cell.
    - {b Text/attribute replacements} only flip the edited node's matched
      set; the flip is propagated to the histogram, levels, nesting pairs
      and the coverage entries of its subtree.

    The engine keeps no statistic of its own.  It adopts the summary's
    live objects — the population and position histograms, and each base
    predicate's build {!accumulators} — and edits them in place: position
    histograms via [Position_histogram.add], so each edit bumps their
    version counters and any memoized pH-join coefficients in a
    {!Catalog} invalidate automatically (the next lookup recomputes), and
    the coverage and level builders with their signed [add]s.  The
    summary then finishes those builders with the same [finish]
    functions a build uses.

    Besides the summary's base predicates, the engine maintains any
    on-demand histogram handed to it with {!track}: only its position
    histogram, which stays bit-identical to a fresh
    [Position_histogram.build] on the edited document.  Each tracked
    predicate costs its share of every later edit.

    The engine edits a private working copy of the document in place
    ({!Document.copy} once, in {!init}).  An edit shifts only the
    document's int columns past the edit point and writes the text and
    attribute payload of the nodes it removes or adds, so it costs the
    nodes it touches rather than a copy of the document.

    The engine lives below the summary layer: [Summary.apply] owns an
    instance, initializes it lazily from the attached document with
    {!init}, funnels updates through {!apply_update}, and finishes its
    entries from the accumulators afterwards. *)

open Xmlest_xmldb
open Xmlest_query
open Xmlest_histogram

(** One base predicate's build accumulators, beside its position
    histogram: the summary build fills them, the summary keeps them while
    a document is attached, and the engine edits them in place. *)
type accumulators = {
  coverage : Coverage_histogram.builder;
      (** every node with a nearest strict matching ancestor, by
          (covered cell, covering cell) *)
  levels : Level_histogram.builder option;  (** [None] when levels are off *)
  mutable pairs : int;  (** nesting (ancestor, descendant) matching pairs *)
}

type t

val init :
  grid:Grid.t ->
  pop:Position_histogram.t ->
  entries:(Predicate.t * Position_histogram.t * accumulators) list ->
  Document.t ->
  t
(** Adopt the statistics of a summary built over [doc]: [pop] and the
    histograms and accumulators in [entries] must already describe [doc]
    on [grid].  They are adopted as the live objects and edited in place
    by later updates; nothing is derived from [doc] here.  [entries]
    lists the summary's base predicates, deduplicated.  The engine takes
    a {!Document.copy} of [doc] and edits only that copy: [doc] itself is
    never mutated. *)

val track : t -> Predicate.t -> Position_histogram.t -> unit
(** [track t pred hist] maintains an on-demand histogram from now on.
    [hist] must describe {!document} for [pred] on the engine's grid; it is
    adopted as the live object and mutated in place by later updates.
    Nothing else is kept for it.  Tracked predicates stay out of
    {!staleness}, which describes the base predicates only. *)

val apply_update : t -> Update.t -> unit
(** Apply one edit to the document and all maintained statistics.  Raises
    [Invalid_argument] on out-of-range node references; the engine, its
    document and its update count are then unchanged. *)

val document : t -> Document.t
(** The engine's working copy, as of the last edit.  The same store on
    every call: the next {!apply_update} edits it in place. *)

val staleness : t -> Staleness.report
