(** Vocabulary pools for generated documents: person names, title words, and
    filler sentences.  Everything is drawn deterministically from a
    {!Splitmix.t}. *)

val person : Splitmix.t -> string
(** "First Last". *)

val word : Splitmix.t -> string
(** One lowercase word from a fixed vocabulary. *)

val title : Splitmix.t -> string
(** A capitalized multi-word phrase (3-9 words). *)

val sentence : Splitmix.t -> string
(** A filler sentence (6-16 words). *)

val email : Splitmix.t -> string
(** A plausible email address. *)

val identifier : Splitmix.t -> prefix:string -> string
(** [prefix] followed by a random 6-digit suffix, e.g. key strings. *)
