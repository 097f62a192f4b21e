(** Cost-based join-order selection driven by answer-size estimates — the
    paper's motivating use case (Sec. 1): with accurate intermediate-result
    estimates, an optimizer can pick the cheapest order in which to
    assemble a twig.

    The cost of a left-deep plan is the sum of the estimated sizes of its
    intermediate results (every prefix sub-twig except the final, whose
    size is plan-invariant).  {!actual_cost} recomputes the same sum
    exactly, so examples and tests can check that the chosen plan is
    genuinely good. *)

open Xmlest_xmldb
open Xmlest_query
open Xmlest_estimate

type costed = {
  plan : Plan.t;
  cost : float;  (** Σ of estimated intermediate sizes (all but the last prefix) *)
  intermediates : float list;  (** estimated size per prefix, in join order *)
}

val rank :
  ?options:Twig_estimator.options ->
  Twig_estimator.catalog ->
  Pattern.t ->
  costed list
(** All left-deep plans, cheapest first.  Prefixes are costed by dynamic
    programming over node sets (bitmasks of pre-order ids): a connected
    set's root is its lowest id, its last child [c] the root's
    largest-id child in the set, and its view is
    {!Twig_estimator.join} of the view of the set without [c]'s sub-twig
    and the view of that sub-twig, over [c]'s own axis when the root is
    [c]'s parent and [Descendant] otherwise.  This is the join
    {!Twig_estimator.estimate} folds last on the prefix's induced
    sub-twig, so every intermediate equals the prefix's [estimate] bit
    for bit.  Each set's view is joined once per call and shared by
    every plan and every larger set that needs it; a composed view
    keeps its coefficient pass for the rest of the call.  Nothing is
    kept across calls.  Raises [Invalid_argument] for a pattern of more
    than [Sys.int_size - 1] nodes, as {!Plan.enumerate} does. *)

val best :
  ?options:Twig_estimator.options ->
  Twig_estimator.catalog ->
  Pattern.t ->
  costed
(** Cheapest plan.  Raises [Invalid_argument] on a single-node pattern. *)

val actual_cost : Document.t -> Plan.t -> int
(** Sum of the exact sizes of the plan's intermediate results (its
    prefixes, counted by the twig-count engine) minus the final prefix
    (the final result is produced by every plan). *)
