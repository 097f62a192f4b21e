(** SAX-style pull parser: the project's one XML grammar.

    Supports the subset of XML 1.0 described in {!Xml_parser}.  [next]
    returns the document's markup one event at a time — [Open] with the
    tag and attribute list, [Text] runs of character data (entity
    references decoded, CDATA included verbatim), and [Close] — parsing
    from a bounded internal buffer, so a document of any size streams in
    O(element depth + buffer) memory.  {!Xml_parser} folds these events
    into an {!Elem} tree, and the out-of-core summary build
    ([Summary.build_stream]) consumes them directly.

    Tag and attribute names are interned per parser: a name is hashed
    straight from the read buffer and looked up in the parser's table,
    so every occurrence of a repeated name is the same string and costs
    no allocation.  The table is bounded: it holds at most 4,096 names of
    at most 256 bytes each, and any name past that bound is copied as it
    comes, so the parser's memory stays O(element depth + buffer) however
    many distinct names a document has.

    The tree this stream describes, and the [(line, column, message)] of
    every error, are property-tested against the original recursive tree
    parser, kept as an oracle in the test suite; so are the events from
    {!of_string} and {!of_channel}, including runs that straddle the
    channel reader's refill edge. *)

type error = { line : int; column : int; message : string }
(** A 1-based line and column (in bytes) and a description. *)

val pp_error : Format.formatter -> error -> unit

exception Parse_error of error
(** Raised by {!next} on malformed input.  {!Xml_parser.Parse_error} is
    this exception. *)

type event =
  | Open of { tag : string; attrs : (string * string) list }
  | Text of string
  | Close

type t

val of_string : string -> t

val of_channel : in_channel -> t
(** Stream from a channel; the parser reads ahead at most its internal
    buffer size.  The caller retains ownership of the channel (the parser
    never closes it). *)

val next : t -> event option
(** The next event, or [None] once the root element has closed and any
    trailing prolog material (comments, PIs, whitespace) has been
    consumed.  Raises {!Parse_error} on malformed input.  Whitespace-only
    text between markup is reported verbatim; per-element trimming is the
    consumer's job (see {!trim_text}).  One [Text] event covers a maximal
    run of character data, entity references and CDATA sections; other
    markup (a child element, a comment, a PI) ends it. *)

val fold : ('a -> event -> 'a) -> 'a -> t -> 'a
(** Drain the stream through an accumulator. *)

val trim_text : string -> string
(** Strip leading and trailing ASCII whitespace — the trim applied to
    each element's concatenated [Text] events to give its [Elem.text]. *)

val is_blank : string -> bool
(** [s] is ASCII whitespace only (or empty).  A blank run before an
    element's first character data can be dropped: {!trim_text} would
    remove it. *)
