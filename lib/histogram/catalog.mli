(** Catalog of position histograms with memoized pH-join coefficients.

    Sec. 3.3 observes that the coefficient arrays driving the pH-join
    estimator depend only on one histogram, so they can be computed once
    per summary histogram and reused across every estimate that touches
    it.  A catalog is the keyed store that owns this trade: each entry
    pairs a histogram with lazily computed descendant/ancestor coefficient
    arrays, invalidated automatically when the histogram mutates (tracked
    via {!Position_histogram.version}).

    The coefficient computations live in [xmlest_estimate] (which depends
    on this library), so they are injected as plain
    [Position_histogram.t -> float array] functions at {!create} time.

    All histograms in one catalog must share a compatible grid; {!add}
    enforces this. *)

type t

type counters = {
  hits : int;  (** lookups served from a fresh cached array *)
  misses : int;  (** lookups that computed an array for the first time *)
  recomputes : int;
      (** lookups that found a cached array stale (histogram mutated) and
          computed a replacement *)
  compute_seconds : float;  (** cumulative CPU seconds spent inside the
          compute functions *)
}

val create :
  compute_desc:(Position_histogram.t -> float array) ->
  compute_anc:(Position_histogram.t -> float array) ->
  unit ->
  t
(** CPU time ([Sys.time]) is sampled around every coefficient computation
    to accumulate [compute_seconds]. *)

(** {1 Histogram store} *)

val add : t -> key:string -> Position_histogram.t -> unit
(** Register (or replace) the histogram under [key].  Any cached
    coefficients for a previous histogram under [key] are dropped.  Raises
    [Invalid_argument] when the histogram's grid is incompatible with the
    catalog's (fixed by the first histogram added). *)

val find : t -> string -> Position_histogram.t option
val keys : t -> string list
(** Sorted. *)

(** {1 Memoized coefficients} *)

val descendant_coefficients : t -> string -> float array option
(** Coefficient array of [compute_desc] for the histogram under the key;
    [None] when the key is absent.  Cached until the histogram's version
    changes. *)

val ancestor_coefficients : t -> string -> float array option
(** Same for [compute_anc]. *)

(** {1 Observability} *)

val counters : t -> counters
val reset_counters : t -> unit
(* lint: allow unused-export — tests pin coefficient memoization through it *)
val cached_arrays : t -> int
(** Number of currently fresh (non-stale) cached coefficient arrays. *)

val pp_stats : Format.formatter -> t -> unit
