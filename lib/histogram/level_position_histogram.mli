(** Position histograms refined with per-cell node-depth counts.

    An {e extension} beyond the paper: for each grid cell of a predicate's
    position histogram, record how the nodes in that cell distribute over
    tree depths.  This enables per-cell-pair parent-child corrections in
    {!Xmlest_estimate.Child_join}: of the node pairs a pH-join cell pair
    contributes, only those whose levels differ by exactly one can be
    parent-child.

    Storage stays O(g): the number of (cell, level) entries is bounded by
    the number of non-zero cells times the few depths a cell spans. *)

open Xmlest_xmldb
open Xmlest_query

type t

val build : Document.t -> grid:Grid.t -> Predicate.t -> t

(* lint: allow unused-export — tests pin per-cell depths to the position histogram *)
val levels_in : t -> i:int -> j:int -> (int * float) array
(** Sorted (depth, count) pairs for a cell; empty for empty cells. *)

val child_pair_fraction : t -> anc_cell:int * int -> desc:t -> desc_cell:int * int -> float
(** Of all level pairs [(la, ld)] with [la < ld] drawn from the two cells'
    depth distributions, the fraction with [ld = la + 1]; 0.0 when no
    [la < ld] pair exists. *)
