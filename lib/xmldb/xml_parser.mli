(** A small, dependency-free XML parser.

    Supports the subset of XML 1.0 needed by the data sets used in the
    paper's evaluation: elements, attributes (single- or double-quoted),
    character data, self-closing tags, comments, processing instructions,
    [CDATA] sections, an (ignored) [DOCTYPE] declaration, and the five
    predefined entities plus numeric character references ([&#ddd;] or
    [&#xhhh;], decimal or hex digits only, code points 0..0x10FFFF).

    Namespaces are not interpreted (prefixes are kept verbatim in tag
    names), and DTD-defined entities are not expanded.

    There is one grammar, {!Sax}'s: this module folds its events into an
    {!Elem} tree with an explicit stack, so nesting depth costs heap, not
    OCaml stack.  The error type and exception are {!Sax}'s, re-exported. *)

type error = Sax.error = { line : int; column : int; message : string }

val pp_error : Format.formatter -> error -> unit

exception Parse_error of error
(** The same exception as {!Sax.Parse_error}. *)

val parse_string : string -> (Elem.t, error) result
(** Parse a complete document; returns its root element.  Character data is
    concatenated (with surrounding whitespace trimmed) into the enclosing
    element's [text]. *)

val parse_string_exn : string -> Elem.t
(** Like {!parse_string}, raising {!Parse_error} on failure. *)

val parse_file : string -> (Elem.t, error) result
(** Parse the contents of a file, streamed from the channel through
    {!Sax.of_channel} rather than read into memory first.  I/O failures
    raise [Sys_error]. *)
