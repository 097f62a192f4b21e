(** The five synthetic data sets by name: the one entry point of the CLI's
    [generate] and the shell's [gen]. *)

open Xmlest_xmldb

val names : string list
(** [dblp], [staff], [xmark], [shakespeare], [treebank]. *)

val generate : ?seed:int -> string -> scale:float -> Elem.t
(** [generate name ~scale] generates the named data set with its size
    multiplied by [scale] ([1.0] is the default size: Table 1's DBLP, Table
    3's staff; Shakespeare scales its 5 acts and Treebank its 200
    sentences, never below one).  Raises [Invalid_argument] on an unknown
    name, or unless [scale] is finite and > 0. *)
