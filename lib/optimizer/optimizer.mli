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
(** All left-deep plans, cheapest first.  Each distinct prefix node set is
    estimated once per call (memoized by its bitmask of node ids), so
    structurally identical prefixes with different node sets are
    estimated separately, to the same value.  Raises [Invalid_argument]
    for a pattern of more than [Sys.int_size - 1] nodes, as
    {!Plan.enumerate} does. *)

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
