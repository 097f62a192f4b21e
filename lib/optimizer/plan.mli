(** Join plans over twig patterns.

    A left-deep plan adds pattern nodes one at a time; every prefix must be
    a connected sub-twig (no cross products).  Pattern nodes are identified
    by their pre-order index in the pattern. *)

open Xmlest_query

type t = { order : int list  (** pattern-node ids, in join order *) }

val node_count : Pattern.t -> int

val node_predicate : Pattern.t -> int -> Predicate.t
(** Predicate of the node with the given pre-order id. *)

val induced : Pattern.t -> int list -> Pattern.t option
(** The sub-twig induced by a set of node ids: present nodes keep their
    closest present ancestor as parent (collapsed edges become
    [Descendant]); [None] if the set is not connected through such
    collapsing (i.e. does not include a common root), or empty.  A plan's
    prefixes are the sub-twigs its first 2, 3, ..., n nodes induce. *)

val pp : Format.formatter -> t -> unit
