(** Immutable XML element trees.

    This is the construction-time representation of a document: a plain
    node-labeled tree.  For querying and estimation it is compiled into the
    array-backed, interval-labeled {!Document.t}. *)

type t = {
  tag : string;  (** element tag name *)
  attrs : (string * string) list;  (** attributes, in document order *)
  text : string;  (** concatenated character data directly under this node *)
  children : t list;  (** sub-elements, in document order *)
}

val make :
  ?attrs:(string * string) list ->
  ?text:string ->
  ?children:t list ->
  string ->
  t
(** [make tag] builds an element.  Defaults: no attributes, empty text, no
    children. *)

val leaf : ?attrs:(string * string) list -> string -> string -> t
(** [leaf tag text] is [make ~text tag]: a text-only element. *)

val size : t -> int
(** Number of element nodes in the tree (including the root). *)

val tag_counts : t -> (string * int) list
(** Distinct tags with their occurrence counts, sorted by tag name. *)
