(** Document update operations for the maintenance subsystem.

    An update stream is an ordered list of edits against a live
    {!Xmlest_xmldb.Document.t}; node references are pre-order indices into
    the document {e as it stands when the update is applied} — each edit
    renumbers nodes after its splice point, so a stream's indices are
    interpreted sequentially, not against the original document.

    Updates travel as text lines (one op per line) through the CLI's
    [apply-updates] subcommand and the REPL's [update] command:

    {v
    insert <parent> <index> <xml>
    delete <node>
    replace-text <node> <text>
    replace-attrs <node> k=v k=v ...
    v} *)

open Xmlest_xmldb

type t =
  | Insert of { parent : Document.node; index : int; subtree : Elem.t }
      (** Insert [subtree] as the [index]-th child of [parent]; an [index]
          outside the child range appends as the last child. *)
  | Delete of { node : Document.node }
      (** Delete the subtree rooted at [node]. *)
  | Replace_text of { node : Document.node; text : string }
  | Replace_attrs of { node : Document.node; attrs : (string * string) list }

val parse : string -> (t, string) result
(** Parse one update line (see the formats above).  Insert subtrees are
    given as inline XML parsed by {!Xml_parser.parse_string};
    [replace-text] takes the rest of the line, trimmed; [replace-attrs]
    takes whitespace-separated [k=v] pairs, where a bare [k] has the
    empty value.  A text, name or value that starts with a double quote
    is an OCaml string literal (["a b"], ["x\ny"]): that is how
    values with spaces, line breaks or edge whitespace travel.  A bad
    literal is an [Error]. *)

val to_line : t -> string
(** Serialize to one line; [parse (to_line u)] gives back [u] for every
    update whose subtree texts are trimmed, as {!Xml_parser} produces
    them.  Texts and attribute words are written bare when [parse] reads
    them back unchanged, and as string literals otherwise; insert
    subtrees are emitted as entity-escaped XML, line breaks as character
    references. *)
