(* Naive nested-loop structural join: the quadratic baseline that
   cross-checks [Structural_join] in the tests. *)

open Xmlest_core
open Xmlest

let count_pairs ?(axis = `Descendant) doc ancs descs =
  let matches =
    match axis with
    | `Descendant -> fun a d -> Document.is_ancestor doc ~anc:a ~desc:d
    | `Child -> fun a d -> Int.equal (Document.parent doc d) a
  in
  let total = ref 0 in
  Array.iter
    (fun a ->
      Array.iter (fun d -> if matches a d then incr total) descs)
    ancs;
  !total
