(** Plan execution: materialize the matches of a twig pattern by running a
    left-deep join plan.

    This is the evaluation side of the paper's motivating scenario: the
    optimizer ({!Xmlest_optimizer.Optimizer}) ranks join orders by
    estimated intermediate sizes; this executor actually performs the
    joins, so the intermediate-size predictions can be checked against the
    rows each plan really materializes — and so queries return bindings,
    not just counts.

    A binding assigns one document node to every pattern node joined so
    far; each step extends all bindings with the plan's next pattern node,
    enforcing the structural edges of the induced sub-twig.  Candidate
    descendants are located by binary search on start positions (a
    descendant set is a contiguous start-position range), so a step costs
    O(rows × log n + output). *)

open Xmlest_xmldb
open Xmlest_query

type result = {
  columns : int list;
      (** pattern-node ids, in binding-column order (= the plan order) *)
  rows : Document.node array list;
      (** one array per match; entry [k] is the node bound to
          [List.nth columns k] *)
  intermediate_sizes : int list;
      (** rows materialized after each join step (sizes 2..n prefixes) —
          the exact sizes of the plan's prefixes *)
}

val run : Document.t -> Pattern.t -> order:int list -> result
(** Execute the given join order (pattern-node ids; every prefix must be
    connected, as the sets {!Xmlest_optimizer.Plan.induced} accepts).  Raises
    [Invalid_argument] on an order that is not a permutation of the
    pattern's nodes or has a disconnected prefix. *)

val anchored_rows : Pattern.axis -> result -> Document.node array list
(** The rows a query with this leading axis
    ({!Xmlest_query.Pattern_parser.query}'s [anchor]) keeps: all of them
    for [Descendant]; for [Child], those that bind the pattern root to the
    document root, so their number is {!Twig_count.count_query}'s. *)
