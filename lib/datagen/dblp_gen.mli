(** Synthetic DBLP-shaped data set.

    Stands in for the real DBLP snapshot used in Sec. 5.1 (9 MB, ~0.5M
    nodes), which is not available offline.  The generator reproduces the
    structural features the experiments depend on:

    - a flat [dblp] root holding publication records ([article],
      [inproceedings], [book], [incollection], [phdthesis]), so every
      element-tag predicate of Table 1 has the no-overlap property;
    - field multiplicities shaped after Table 1's counts: per record one
      [title] and one [year], ~2.1 [author]s, ~0.98 [url], skewed [cite]
      lists (mean ~1.66, most records citing nothing), rare [cdrom];
    - [cite] text beginning with ["conf/"] (~41%), ["journals/"] (~24%) or
      other prefixes, supporting the prefix-match content predicates;
    - [year] text distributed ~65% in the 1980s, ~20% in the 1990s, rest
      earlier, matching the compound-predicate counts of Table 1.

    Record-kind proportions follow Table 1: with [n_records = 19_921] the
    defaults give ≈7.4k articles, ≈0.4k books and ≈12k inproceedings. *)

open Xmlest_xmldb

val generate_scaled : ?seed:int -> float -> Elem.t
(** [generate_scaled s] generates the [dblp] document with Table 1's
    proportions and [n_records] scaled by [s]; [s = 1.0] reproduces Table
    1's magnitudes (~150k element nodes). *)
