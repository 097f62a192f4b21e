(** The [.xsum] summary store.

    A store is one file: a short header (magic [xsum 2], the grid line,
    the population's place in the payload, the section count), a
    length-prefixed section table with one entry per predicate — its
    {!Xmlest_query.Predicate.name}, its tag, its syntax, its no-overlap
    flag and where its parts lie in the payload — and a payload holding
    only non-zero content (Theorem 1): position histograms as sorted
    (cell, value) runs, coverage histograms as their entries, level
    counts as they are.  Nothing derivable is stored: histogram totals,
    coverage populations and per-cell coverage totals are recomputed by
    [Summary] when a section is adopted.

    {!read} reads the file once and checks the header and the table
    (lengths, counts, every part inside the payload), indexing sections
    by name; it decodes no section.  {!section} decodes and validates one
    section on demand.  It is the only on-disk form of a summary.

    This module only knows the container: names, strings and arrays in,
    the same out.  [Summary.save_store] / [Summary.load_store] translate
    between sections and live histograms. *)

open Xmlest_histogram

type section = {
  name : string;  (** [Predicate.name], the lookup key *)
  tag : string option;  (** [Predicate.tag_of] *)
  syntax : string;  (** [Predicate.to_syntax] *)
  no_overlap : bool;
  hist : int array * float array;
      (** the non-zero cells: ascending row-major indices and their counts *)
  cvg : (int * int * float) list option;
      (** coverage entries (covered cell, covering cell, fraction),
          ascending by (covered, covering) *)
  lvl : float array option;  (** level counts, outermost level first *)
}

val write :
  string -> grid:Grid.t -> population:int array * float array -> section list -> unit
(** Serialize to the path: the population's non-zero cells, then one
    table entry per section, in order (sections of the same name share
    their payload).  Floats are written as their bits, so {!read} and
    {!section} reproduce every value exactly. *)

type t
(** An opened store: the file's bytes, its grid and its section table. *)

val read : string -> (t, string) result
(** Read the whole file and check its header and section table.  Errors
    (missing file, bad magic, an [xsum 1] file — "unsupported store
    version" —, a grid line that does not match the header's cell count
    or builds no grid, a truncated file or trailing bytes, a table entry
    running past the table, a part running past the payload) are
    returned, not raised.  No section is decoded. *)

val grid : t -> Grid.t

val length : t -> int
(** Number of sections, one per predicate occurrence of the saved
    summary. *)

val find : t -> string -> int option
(** The first section of this name. *)

val name : t -> int -> string

val tags : t -> string list
(** The sections' tags, in section order (a section without one adds
    nothing). *)

val has_levels : t -> bool
(** Some section carries level counts. *)

exception Corrupt of string
(** A section (or the population) whose content breaks the format:
    cells not strictly ascending, off the grid or below its diagonal,
    counts that are not non-negative integers below 2{^ 53}, coverage
    entries out of order or with a fraction outside [\[0, 1\]], no level
    counts. *)

val population : t -> int array * float array
(** The population histogram's non-zero cells.  Raises {!Corrupt}. *)

val section : t -> int -> section
(** Decode and validate one section.  Raises {!Corrupt}. *)
