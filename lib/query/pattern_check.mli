(** Semantic analysis of twig patterns before estimation.

    The estimator happily produces a number for any well-formed pattern —
    including patterns that can never match anything (a node demanding
    [tag=A ∧ tag=B], a child whose pinned level contradicts its parent's,
    a tag that does not occur in the summarized document at all).  Native
    XML engines run static well-formedness checks over queries before
    evaluation; this module is that analog for the estimation pipeline:
    it inspects a {!Pattern.t} (and optionally the schema — the tag set —
    of the summary it will be estimated against) and returns structured
    diagnostics.

    A diagnostic with severity {!Unsat} is a proof that the pattern's
    answer size is 0: callers (the CLI and REPL [estimate] paths, and
    [Summary.estimate_checked]) short-circuit to a 0.0 estimate instead
    of running the pH-join machinery on a contradiction.  {!Warn}
    diagnostics flag degenerate-but-satisfiable structure (duplicate
    edges, tags outside a non-exhaustive schema). *)

type severity =
  | Unsat  (** the pattern provably has answer size 0 *)
  | Warn  (** degenerate or suspicious, but possibly non-empty *)

type diag = {
  node : int;  (** pre-order id of the pattern node (root is 0) *)
  rule : string;
      (** one of ["contradiction"], ["unsat-range"], ["unknown-tag"],
          ["level-edge"], ["duplicate-edge"] *)
  severity : severity;
  message : string;
}

val check :
  ?known_tags:string list -> ?tags_exhaustive:bool -> Pattern.t -> diag list
(** Analyze the pattern.  With [known_tags], node predicates that pin a
    tag outside the list are reported under ["unknown-tag"]: as {!Unsat}
    when [tags_exhaustive] (default [true] — the list is the document's
    complete tag set, so the estimate is provably 0), as {!Warn}
    otherwise (the list is only the summary's predicate schema).

    Checks performed per node: contradictory conjunctions (two different
    pinned tags, exact texts, levels or attribute values; a prefix /
    suffix / substring constraint incompatible with an exact text; two
    incompatible prefixes; [p ∧ ¬p]), unsatisfiable value ranges
    (negative levels; [Level_eq 0] on a non-root node), disjunctions all
    of whose branches are contradictory.  Checks per edge: pinned levels
    incompatible with the axis ([a/b] needs [level b = level a + 1],
    [a//b] needs [level b > level a]) and duplicate edges (two
    structurally equal subtrees under the same axis — legal, but usually
    a query bug since it squares the subtree's match count).

    Diagnostics come back in pre-order node order. *)

val unsatisfiable : diag list -> bool
(** [true] when any diagnostic is {!Unsat} — a total match mapping needs
    every pattern node, so one impossible node empties the answer. *)

val to_string : diag list -> string
(** One ["node <id> [<rule>] <message>"] line per diagnostic. *)
