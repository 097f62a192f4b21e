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
      set; the flip is propagated to counts, levels, nesting pairs and the
      coverage entries of its subtree.

    Position histograms are mutated in place via
    [Position_histogram.add], so each edit bumps their version counters
    and any memoized pH-join coefficients in a {!Catalog} invalidate
    automatically (the next lookup recomputes).

    Besides the summary's base predicates, the engine maintains any
    on-demand histogram handed to it with {!track}: such a predicate is
    seeded with one sweep and then updated by every edit exactly like a
    base predicate, so it stays bit-identical to a fresh
    [Position_histogram.build] on the edited document.  Each tracked
    predicate costs its share of every later edit.

    The engine edits a private working copy of the document in place
    ({!Document.copy} once, in {!init}).  An edit shifts only the
    document's int columns past the edit point and writes the text and
    attribute payload of the nodes it removes or adds, so it costs the
    nodes it touches rather than a copy of the document.

    The engine lives below the summary layer: [Summary.apply] owns an
    instance, initializes it lazily from the attached document with
    {!init}, funnels updates through {!apply_update}, and regenerates its
    entry records from {!results}. *)

open Xmlest_xmldb
open Xmlest_query
open Xmlest_histogram

type t

val init :
  grid:Grid.t ->
  pop:Position_histogram.t ->
  with_levels:bool ->
  entries:(Predicate.t * Position_histogram.t) list ->
  Document.t ->
  t
(** Seed the maintained counters with one document-order sweep.  [pop] and
    the per-predicate histograms in [entries] must already describe
    [doc] on [grid] (they are adopted as the live objects and mutated in
    place by later updates, not recomputed here); [entries] lists the
    summary's base predicates deduplicated in first-occurrence order.
    The engine takes a {!Document.copy} of [doc] and edits only that copy:
    [doc] itself is never mutated. *)

val track : t -> Predicate.t -> Position_histogram.t -> unit
(** [track t pred hist] maintains an on-demand histogram from now on.
    [hist] must describe {!document} for [pred] on the engine's grid; it is
    adopted as the live object, like a base predicate's, and mutated in
    place by later updates.  Tracked predicates stay out of {!results}
    and {!staleness}, which describe the base predicates only. *)

val tracks : t -> string -> bool
(** Whether {!track} was given a predicate of this {!Predicate.name}. *)

val apply_update : t -> Update.t -> unit
(** Apply one edit to the document and all maintained statistics.  Raises
    [Invalid_argument] on out-of-range node references; the engine, its
    document and its update count are then unchanged. *)

val document : t -> Document.t
(** The engine's working copy, as of the last edit.  The same store on
    every call: the next {!apply_update} edits it in place. *)

val populations : t -> float array
(** Dense per-cell node counts over all nodes, maintained exactly — the
    [populations] argument coverage histograms are finished against. *)

type pred_result = {
  r_pred : Predicate.t;
  r_name : string;
  r_count : int;  (** matching nodes *)
  r_no_overlap : bool;  (** exact: zero nesting pairs among matches *)
  r_coverage : (int * int * float) list;
      (** (covered cell, covering cell, fraction of the covered cell's
          population) — feed to [Coverage_histogram.of_parts] *)
  r_levels : float array;
      (** per-level matching counts, trimmed like
          [Level_histogram.finish] — feed to [Level_histogram.of_counts] *)
}

val results : t -> pred_result list
(** Regeneration view of every base predicate, in the order given to
    {!init}.  [r_no_overlap] is derived from the data (exact
    nesting-pair counts), as a build derives it. *)

val staleness : t -> Staleness.report
