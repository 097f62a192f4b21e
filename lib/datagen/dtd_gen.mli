(** Random document generation driven by a DTD, standing in for the IBM XML
    generator used in the paper's synthetic experiments.

    Recursive content models (e.g. [manager] containing [manager]) are
    handled by damping the probability of recursion-inducing choices and
    the repetition counts of [*]/[+] particles as depth grows, so that
    generation always terminates while still producing the deeply nested,
    repeated element tags the paper studies. *)

open Xmlest_xmldb

type config = {
  seed : int;
  max_depth : int;  (** hard recursion cap; deeper recursive choices are pruned *)
  p_opt : float;  (** probability that a [?] particle is instantiated *)
  star_mean : float;  (** mean repetitions of a [*] particle at depth 0 *)
  plus_extra_mean : float;  (** mean repetitions beyond one for [+] at depth 0 *)
  recursion_damping : float;
      (** per-level multiplier (< 1) applied to the probability of choosing
          a recursive branch and to star/plus means along recursive paths *)
  max_nodes : int;  (** soft cap on generated elements; repetition stops growing once reached *)
  text : Splitmix.t -> string -> string;
      (** text generator for [#PCDATA], given the enclosing tag *)
  rep_mean :
    parent:string -> kind:[ `Star | `Plus ] -> elems:string list -> float option;
      (** per-context override of [star_mean] / [plus_extra_mean]; [elems]
          are the element names appearing in the repeated particle *)
  choice_weight : parent:string -> elems:string list -> float option;
      (** per-context override of a choice branch's weight (default 1.0);
          recursion damping is applied on top *)
}

(* lint: allow unused-export — the base of [generate ?config], hooks included *)
val default_config : config
(** seed 42, max_depth 12, p_opt 0.5, star_mean 2.0, plus_extra_mean 1.0,
    recursion_damping 0.55, max_nodes 1_000_000, word-based text. *)

val generate : ?config:config -> Dtd.t -> root:string -> Elem.t
(** Generate one document whose root element is [root] (which must be
    declared in the DTD). *)
