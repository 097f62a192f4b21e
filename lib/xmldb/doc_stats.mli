(** Per-tag summary statistics for a document store.

    Used to regenerate the "characteristics of predicates" tables of the
    paper (Tables 1 and 3): node count and the overlap property for each
    element tag. *)

type tag_stat = {
  tag : string;
  count : int;
  min_level : int;
  max_level : int;
  overlapping : bool;
      (** [true] iff two nodes with this tag nest (i.e. the tag predicate
          does {e not} have the no-overlap property). *)
}

val tag_stats : Document.t -> tag_stat list
(** Statistics for every distinct tag, sorted by tag name. *)

val pp_table : Format.formatter -> tag_stat list -> unit
(** Render as an aligned text table. *)
