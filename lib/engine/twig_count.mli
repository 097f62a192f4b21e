(** Exact twig-match counting.

    Counts the matches of a {!Pattern.t} in a document by dynamic
    programming over the document: for each pattern node [q] (processed
    bottom-up) and document node [v],

    [matches q v] = (does [v] satisfy [q]'s predicate) ×
    Π over edges [(axis, q')] of [q] of
    (Σ over the [axis]-related nodes [u] of [v] of [matches q' u]).

    Descendant sums are O(1) per node via prefix sums over the pre-order
    node array (a subtree is a contiguous index range); child sums are
    accumulated into parents in one reverse scan.  Total cost
    O(|Q| · |T|). *)

open Xmlest_xmldb
open Xmlest_query

val count : Document.t -> Pattern.t -> int
(** Number of matches with the pattern root mapped to any document node. *)

val count_query : Document.t -> Pattern_parser.query -> int
(** Number of matches of a parsed query: {!count} for a leading [//]; for
    a leading [/], only those that map the pattern root to the document
    element. *)
