(** XML serialization for {!Elem.t} trees. *)

val to_buffer : ?indent:bool -> Buffer.t -> Elem.t -> unit
(** Serialize [e] into a buffer.  With [~indent:true] (default) children are
    placed on separate, indented lines, two spaces per level up to depth
    32 and no deeper, so the output stays O(n) bytes on any nesting; text
    content is kept inline. *)

val to_string : ?indent:bool -> Elem.t -> string
(** Serialize to a string, including an XML declaration. *)

val to_file : ?indent:bool -> string -> Elem.t -> unit
(** Serialize to a file, including an XML declaration: the same bytes as
    {!to_string}, written through the channel as they are produced. *)

val escape_text : string -> string
(** Escape ampersand and angle brackets for character data. *)

val escape_attr : string -> string
(** Escape ampersand, angle brackets and double quotes for double-quoted attribute values. *)
