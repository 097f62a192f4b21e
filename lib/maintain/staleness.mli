(** Maintenance counters for incrementally maintained summaries.

    Every edit class is maintained exactly (a maintained summary stays
    bit-identical to a same-grid rebuild of the edited document), so
    staleness is not a question of accuracy: the report only says how much
    work maintenance has done since the last (re)build.  The {!Apply}
    engine counts, per predicate, the matching nodes whose statistics an
    edit touched.

    A {!policy} decides whether an apply batch ends in a full fused
    rebuild. *)

type policy = [ `Never | `Always ]
(** [`Never] applies updates incrementally forever; [`Always] rebuilds
    after every {e apply} batch that processed at least one update (which
    also re-derives the grid, so uniform grids regain dense position
    coverage after appends widened the position space). *)

type report = {
  updates_since_build : int;
  nodes_touched : int;  (** sum over predicates *)
  per_predicate : (string * int) list;
      (** matching nodes touched, per predicate name *)
}

val make_report :
  updates_since_build:int -> per_predicate:(string * int) list -> report

val needs_rebuild : policy -> report -> bool

val pp_policy : Format.formatter -> policy -> unit
val pp_report : Format.formatter -> report -> unit
