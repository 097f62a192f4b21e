(** Parser for the [<!ELEMENT ...>] subset of DTD syntax.

    Understands element declarations with [EMPTY], [ANY] (treated as
    text-only), [#PCDATA], sequences, choices, and the [? * +] occurrence
    operators — enough to ingest the DTD printed in Sec. 5.2 of the paper
    verbatim.  [<!ATTLIST>] and [<!ENTITY>] declarations and comments are
    skipped. *)

val parse_exn : string -> Dtd.t
(** Parse the declarations found in a DTD document (or internal subset);
    raises [Failure] on error. *)
