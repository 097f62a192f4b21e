(** Stack-based structural join over interval-labeled node lists.

    The merge walks both document-order lists once, keeping a stack of
    currently-open ancestor candidates — the classic stack-tree join used
    by native XML engines (and by TIMBER, the paper's host system).  It is
    the exact-counting counterpart of the estimates: every "Real Result"
    column in the paper's tables is computed with this join. *)

open Xmlest_xmldb

val count_pairs :
  ?axis:[ `Descendant | `Child ] ->
  Document.t ->
  Document.node array ->
  Document.node array ->
  int
(** [count_pairs doc ancs descs] is the number of pairs [(u, v)] with [u] in
    [ancs], [v] in [descs] and [u] an ancestor (default) or parent
    ([~axis:`Child]) of [v].  Both arrays must be in document order.
    Runs in O(|ancs| + |descs| + output-free time); counting is O(n) via
    per-node ancestor-stack depth. *)

val count_following :
  Xmlest_xmldb.Document.t ->
  Xmlest_xmldb.Document.node array ->
  Xmlest_xmldb.Document.node array ->
  int
(** Number of pairs [(u, v)] with [u] in the first list entirely preceding
    [v] in the second ([end u < start v], XPath's [following] axis).  Both
    arrays in document order; O(n log n). *)
