(** XML serialization for {!Elem.t} trees. *)

val to_string : ?indent:bool -> Elem.t -> string
(** Serialize to a string, including an XML declaration.  With
    [~indent:true] (default) children are placed on separate, indented
    lines, two spaces per level up to depth 32 and no deeper, so the
    output stays O(n) bytes on any nesting; text content is kept
    inline.  Character data and attribute values are escaped. *)

val to_file : ?indent:bool -> string -> Elem.t -> unit
(** Serialize to a file, including an XML declaration: the same bytes as
    {!to_string}, written through the channel as they are produced. *)
