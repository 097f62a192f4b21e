(** Choosing the base predicate set P (Sec. 3.4).

    The paper recommends a histogram per element tag, plus histograms for
    element-content predicates that "occur frequently" (citing end-biased
    histograms: spend the budget on the most frequent values, where errors
    would matter most).  This module derives such a predicate set from the
    data:

    - one [Tag] predicate per distinct element tag;
    - for each tag whose nodes carry text, [text_eq] predicates for the
      values that individually cover at least [value_threshold] of that
      tag's nodes (e.g. each year in DBLP);
    - when no single value is frequent but many values share a short
      prefix (e.g. cite keys "conf/...", "journals/..."), [text_prefix]
      predicates for prefixes covering at least [prefix_threshold]. *)

open Xmlest_xmldb
open Xmlest_query

type config = {
  value_threshold : float;  (** min share of a tag's nodes for a value predicate (default 0.02) *)
  prefix_threshold : float;  (** min share for a prefix predicate (default 0.10) *)
  prefix_length : int;  (** prefix cut: up to the first ['/'] or this many chars (default 8) *)
  max_per_tag : int;  (** cap on content predicates per tag (default 20) *)
}

val suggest : ?config:config -> Document.t -> Predicate.t list
(** The suggested base predicate set, tag predicates first (sorted by
    tag), then content predicates grouped by tag.  Without [?config] the
    defaults above apply. *)
