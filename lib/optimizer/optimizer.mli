(** Cost-based join-order selection driven by answer-size estimates — the
    paper's motivating use case (Sec. 1).  A left-deep plan costs the sum
    of its intermediate results' estimated sizes (every prefix sub-twig
    but the final one, whose size is plan-invariant), added left to
    right.  {!actual_cost} recomputes the sum exactly.

    Plans are searched over node sets (bitmasks of pre-order ids), each
    connected set's view joined once per call by
    {!Twig_estimator.join}, in the order {!Twig_estimator.estimate} folds
    the set's induced sub-twig ({!Plan.induced}): every intermediate is
    the prefix's [estimate], bit for bit.  Nothing is kept across calls.
    {!rank}, {!best} and {!listing} raise [Invalid_argument] for a
    pattern of more than {!max_nodes} nodes. *)

open Xmlest_xmldb
open Xmlest_query
open Xmlest_estimate

type costed = {
  plan : Plan.t;
  cost : float;  (** Σ of estimated intermediate sizes (all but the last prefix) *)
  intermediates : float list;  (** estimated size per prefix, in join order *)
}

val max_nodes : int
(** 14.  Every set of a chain's nodes is connected, so a chain keeps the
    most views; at g = 50 a 14-node chain's take about 200 MB. *)

val rank :
  ?options:Twig_estimator.options ->
  Twig_estimator.catalog ->
  Pattern.t ->
  costed list
(** All left-deep plans, cheapest first, equal costs in lexicographic
    order.  Lists every order, so it is exponential in the pattern. *)

val best :
  ?options:Twig_estimator.options ->
  Twig_estimator.catalog ->
  Pattern.t ->
  costed
(** Cheapest plan, by Selinger's dynamic program over connected sets,
    which lists no orders: the cheapest order of M is the cheapest order
    of some connected M − v followed by v, equal costs going to the
    lexicographically smaller order.  The plan is thus the smallest order
    each prefix of which is a cheapest order of its own node set.  Its
    cost is always {!rank}'s head's, bit for bit, and so is the plan,
    except where rounding absorbs the extra cost of a prefix into a tie:
    such an order can head [rank], but the program never keeps a prefix
    that is not a cheapest one.  Raises [Invalid_argument] on a
    single-node pattern. *)

val listing :
  ?options:Twig_estimator.options ->
  Twig_estimator.catalog ->
  Pattern.t ->
  int * costed list
(** The number of orders, counted by {!best}'s program, and {!rank} when
    there are at most 100 of them, otherwise {!best} alone. *)

val actual_cost : Document.t -> Pattern.t -> Plan.t -> int
(** Sum of the exact sizes of the plan's prefixes ({!Plan.induced},
    counted by the twig-count engine) but the final one. *)
