(** Sampling helpers shared by the data generators. *)

val poisson : Splitmix.t -> float -> int
(** Poisson sample with the given mean (inversion method; fine for the
    small means used here). *)
