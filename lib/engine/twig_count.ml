open Xmlest_xmldb
open Xmlest_query

(* Sum of [arr] over the strict subtree of each node, via prefix sums:
   subtree of [v] is the contiguous pre-order range [v+1 .. subtree_last v]. *)
let strict_subtree_sums doc arr =
  let n = Array.length arr in
  let prefix = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    prefix.(v + 1) <- prefix.(v) + arr.(v)
  done;
  Array.init n (fun v ->
      prefix.(Document.subtree_last doc v + 1) - prefix.(v + 1))

(* Sum of [arr] over the children of each node: push each node's value into
   its parent. *)
let child_sums doc arr =
  let n = Array.length arr in
  let out = Array.make n 0 in
  for v = n - 1 downto 1 do
    let p = Document.parent doc v in
    if p >= 0 then out.(p) <- out.(p) + arr.(v)
  done;
  out

let match_counts doc pattern =
  let n = Document.size doc in
  let rec counts (p : Pattern.t) =
    let edge_sums =
      List.map
        (fun (axis, child) ->
          let child_counts = counts child in
          match axis with
          | Pattern.Descendant -> strict_subtree_sums doc child_counts
          | Pattern.Child -> child_sums doc child_counts)
        p.Pattern.edges
    in
    Array.init n (fun v ->
        if Predicate.eval p.Pattern.pred doc v then
          List.fold_left (fun acc sums -> acc * sums.(v)) 1 edge_sums
        else 0)
  in
  counts pattern

let count doc pattern = Array.fold_left ( + ) 0 (match_counts doc pattern)

(* The document element is node 0, which no edit removes. *)
let count_query doc (q : Pattern_parser.query) =
  match q.anchor with
  | Pattern.Descendant -> count doc q.root
  | Pattern.Child -> (match_counts doc q.root).(0)
