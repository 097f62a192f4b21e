(** Deterministic splittable PRNG (SplitMix64).

    All data generators are driven by this generator so that every data set
    in the repository is reproducible from a single integer seed,
    independent of the OCaml stdlib [Random] state. *)

type t

val create : int -> t
(** Create a generator from a seed. *)

val split : t -> t
(** Derive an independent generator; the parent is advanced. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val weighted : t -> (float * 'a) list -> 'a
(** Choice with the given non-negative weights (not necessarily
    normalized); at least one weight must be positive. *)

val geometric : t -> float -> int
(** [geometric t mean] samples a non-negative integer with the given mean
    (geometric distribution on 0, 1, 2, ...). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
