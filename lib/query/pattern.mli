(** Twig query patterns (Sec. 2): small rooted node-labeled trees whose
    nodes carry predicates and whose edges demand a structural
    (ancestor-descendant or parent-child) relationship.

    A {e match} of pattern [Q] in document [T] is a total mapping from
    pattern nodes to document nodes such that each node's predicate holds
    and each edge's axis relationship holds; the answer size of [Q] is the
    number of such mappings. *)

type axis =
  | Child  (** parent-child edge, [a/b] *)
  | Descendant  (** ancestor-descendant edge, [a//b] *)

type t = { pred : Predicate.t; edges : (axis * t) list }

val node : ?edges:(axis * t) list -> Predicate.t -> t

val twig : Predicate.t -> Predicate.t list -> t
(** [twig root leaves] is a root with one [Descendant] edge per leaf — the
    paper's canonical twig (e.g. faculty with TA and RA below). *)

val size : t -> int
(** Number of pattern nodes. *)

val edge_count : t -> int

val predicates : t -> Predicate.t list
(** All predicates, in pre-order. *)

type flat = {
  preds : Predicate.t array;  (** predicate per pre-order node id *)
  parents : int array;  (** parent id, [-1] for the root *)
  axes : axis array;  (** axis to parent; root entry unused *)
}

val flatten : t -> flat
(** Parallel-array view of the pattern, indexed by pre-order node id —
    the representation plan enumeration and execution work over. *)

val equal : t -> t -> bool

val to_string : t -> string
(** XPath-ish rendering, e.g. [//faculty\[.//TA\]//RA]. *)
