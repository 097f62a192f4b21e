(** The [.xsum] binary summary store.

    A store is one file: a short line-oriented header (magic, payload
    offset, grid geometry, one section per predicate) followed by a flat
    little-endian [float64] payload holding every histogram's cells.
    {!open_in} parses only the header — O(predicates × grid size) text,
    no per-cell work — then memory-maps the payload once and returns
    zero-copy [F64] slices of the mapping; the cost of opening is
    independent of how many cells the histograms hold, which is the point
    of the format.  It is the only on-disk form of a summary.

    The mapping is copy-on-write ([Unix.map_file] with [shared = false]),
    so histograms backed by a store may be mutated in place (incremental
    maintenance) without the file ever changing.

    This module only knows the container: flat views in, flat views out.
    [Summary.save_store] / [Summary.load_store] translate between these
    views and live histogram values. *)

open Xmlest_histogram

type hist_view = {
  h_total : float;  (** stored cell sum, so opening skips the fold *)
  h_cells : F64.t;  (** dense row-major cells, length [Grid.cells] *)
}

(** Coverage histogram in compressed-sparse-row form, exactly the layout
    [Coverage_histogram.of_csr_mapped] adopts: row offsets per covered
    cell (exact small integers kept in payload float form, so an open
    never faults the offset pages in), then (covering index, fraction)
    float pairs, then the dense population and per-cell total-coverage
    vectors. *)
type cvg_view = {
  c_entries : int;  (** CSR entry count, cross-checked against offsets *)
  c_offsets : F64.t;  (** length [cells + 1] *)
  c_data : F64.t;  (** length [2 × entries] *)
  c_populations : F64.t;  (** length [cells] *)
  c_total_cvg : F64.t;  (** length [cells] *)
}

type block = {
  b_syntax : string;  (** [Predicate.to_syntax] of the block's predicate *)
  b_no_overlap : bool;
  b_hist : hist_view;
  b_cvg : cvg_view option;
  b_lvl : F64.t option;  (** level counts, outermost level first *)
}

type t = {
  s_grid : Grid.t;
  s_population : hist_view;
  s_blocks : block list;  (** one per predicate occurrence, in order *)
}

val write :
  string -> grid:Grid.t -> population:hist_view -> blocks:block list -> unit
(** Serialize to [path].  Cell values are written bit-exactly
    ([Int64.bits_of_float], little-endian), so a round trip through
    {!open_in} reproduces every float identically. *)

val open_in : string -> (t, string) result
(** Parse the header, map the payload, slice the views.  All [F64.t]
    fields of the result alias one private (copy-on-write) mapping of the
    file.  Errors (missing file, bad magic, a grid line no grid can be
    built from, truncated payload, wrong endianness detected via the
    sentinel) are returned, not raised. *)
