(** Bucket geometry shared by all histograms over the position space.

    A [g × g] grid over start/end positions [0 .. max_pos]: cell [(i, j)]
    holds nodes whose start position falls in bucket [i] and end position
    in bucket [j].  Since [start < end] for every node, only cells with
    [i <= j] can be populated (the upper-left triangle of Fig. 3).

    Buckets are either uniform-width (the paper's configuration) or given
    by explicit boundaries — {!equidepth} places boundaries at quantiles of
    the position population, the "non-uniform grid cells" the paper flags
    as future work (Sec. 7).  All estimation algorithms only rely on the
    bucketization being monotone and shared between the two axes, so they
    work unchanged on either kind. *)

type t = private {
  size : int;  (** [g] *)
  max_pos : int;
  boundaries : int array;
      (** [size + 1] entries; bucket [i] covers positions
          [boundaries.(i) .. boundaries.(i+1) - 1]; [boundaries.(0) = 0]
          and [boundaries.(size) = max_pos + 1] *)
  uniform_width : int option;
      (** [Some w] for uniform grids (fast bucket lookup) *)
}

val create : size:int -> max_pos:int -> t
(** Uniform grid: [size] buckets of width [ceil ((max_pos + 1) / size)].
    Raises [Invalid_argument] when [size <= 0] or when there are fewer
    positions than buckets ([size > max_pos + 1]). *)

val equidepth : size:int -> max_pos:int -> positions:int array -> t
(** Grid whose bucket boundaries sit at quantiles of [positions] (an array
    of values in [0 .. max_pos]), so each bucket holds roughly the same
    number of population positions.  The input need not be sorted: a copy
    is sorted internally, and the argument array is never modified.
    Degenerates gracefully when [positions] has fewer than [size] distinct
    values. *)

val of_boundaries : int array -> t
(** Grid from explicit boundaries: [size + 1] strictly increasing entries
    starting at 0; the last entry is [max_pos + 1].  Raises
    [Invalid_argument] on malformed input. *)

(* lint: allow unused-export — tests pin both grid kinds' bucketization through it *)
val bucket : t -> int -> int
(** Bucket of a position; in [\[0, size)].  Raises [Invalid_argument]
    outside [0 .. max_pos]. *)

val cell_of_node : t -> start_pos:int -> end_pos:int -> int * int
(** [(bucket start, bucket end)].  Unlike {!bucket}, positions beyond
    [max_pos] clamp into the last bucket: maintenance appends label nodes
    past the grid's original range, and rebuilding on the same grid must
    place them exactly where the incremental path did. *)

val cells : t -> int
(** [size * size], the dense array length. *)

val index : t -> i:int -> j:int -> int
(** Row-major dense index of cell [(i, j)] ([i] = start bucket). *)

val is_uniform : t -> bool

val compatible : t -> t -> bool
(** Identical bucketization — required of histogram pairs fed to the join
    estimators.  Size and [max_pos] must agree in every case (grids over
    different position ranges clamp their last bucket differently even at
    equal width); uniform grids additionally need equal widths, boundary
    grids equal boundary arrays. *)

val pp : Format.formatter -> t -> unit
