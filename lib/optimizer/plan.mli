(** Join plans over twig patterns.

    A left-deep plan adds pattern nodes one at a time; every prefix must be
    a connected sub-twig (no cross products).  Pattern nodes are identified
    by their pre-order index in the pattern. *)

open Xmlest_query

type t = {
  order : int list;  (** pattern-node ids, in join order *)
  prefixes : Pattern.t list;
      (** induced sub-twig after each join step (sizes 2, 3, ..., n) *)
}

val node_count : Pattern.t -> int

val node_predicate : Pattern.t -> int -> Predicate.t
(** Predicate of the node with the given pre-order id. *)

(* lint: allow unused-export — the Estimator invariant's enumerate oracle builds prefixes with it *)
val induced : Pattern.t -> int list -> Pattern.t option
(** The sub-twig induced by a set of node ids: present nodes keep their
    closest present ancestor as parent (collapsed edges become
    [Descendant]); [None] if the set is not connected through such
    collapsing (i.e. does not include a common root), or empty. *)

val enumerate : Pattern.t -> t list
(** All left-deep plans: permutations of the node ids whose every prefix of
    size >= 2 induces a connected sub-twig.  Exponential in pattern size;
    intended for the small patterns of XML queries (<= 8 nodes).  Each
    node set's induced sub-twig is built once, memoized by the set's
    bitmask of node ids, and the same value is shared by every plan whose
    prefix has that set.  Raises [Invalid_argument] for a pattern of more
    than [Sys.int_size - 1] nodes, where the bitmask would wrap. *)

val pp : Format.formatter -> t -> unit
