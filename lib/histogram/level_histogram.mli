(** Per-predicate node-depth histograms.

    An {e extension} beyond the paper (which defers parent-child edges to
    its tech report): the level histogram records how many P-nodes sit at
    each depth.  {!child_fraction} derives a correction factor that turns
    an ancestor-descendant estimate into a parent-child one, assuming
    levels are independent of positions within a pair. *)

open Xmlest_xmldb
open Xmlest_query

type t

val build : Document.t -> Predicate.t -> t

(** {2 Streaming construction} *)

type builder

val builder : unit -> builder

val feed : builder -> int -> unit
(** Count one node at the given depth; the internal array grows on
    demand. *)

val add : builder -> int -> float -> unit
(** [add b l d] adds the signed count [d] at depth [l]: maintenance
    removes a node with [-1.0].  Every net count must be non-negative
    when {!finish} runs. *)

val finish : builder -> t
(** Freeze: counts for levels [0 .. last non-zero level] ([\[|0.0|\]]
    when every count is zero, matching {!build} on an empty node set).
    The builder stays usable: a later {!add} and [finish] give a new
    histogram. *)

val child_fraction : anc:t -> desc:t -> float
(** Of all level pairs [(la, ld)] with [la < ld] weighted by the level
    histograms, the fraction with [ld = la + 1] — an estimate of
    P(parent-child | ancestor-descendant).  Returns 1.0 when either
    histogram is empty or no [la < ld] pair exists (no correction). *)

val storage_bytes : t -> int
(** 4 bytes per non-zero level entry. *)

val counts : t -> float array
(** Copy of the per-level counts (index = depth). *)

val of_counts : float array -> t
(** Rebuild from per-level counts (index = depth). *)
