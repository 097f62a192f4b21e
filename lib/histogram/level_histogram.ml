open Xmlest_xmldb
open Xmlest_query

type t = { counts : float array }

(* Streaming builder: counts arrive level by level with no bound known up
   front, so the array grows geometrically and [finish] trims it to the
   last non-zero level (one zero entry for an empty set, mirroring
   [build] on an empty node set).  Maintenance edits the same counts with
   signed [add]s. *)
type builder = { mutable b_counts : float array }

let builder () = { b_counts = Array.make 8 0.0 }

let add b l d =
  if l >= Array.length b.b_counts then begin
    let n = ref (2 * Array.length b.b_counts) in
    while l >= !n do
      n := 2 * !n
    done;
    let bigger = Array.make !n 0.0 in
    Array.blit b.b_counts 0 bigger 0 (Array.length b.b_counts);
    b.b_counts <- bigger
  end;
  b.b_counts.(l) <- b.b_counts.(l) +. d

let feed b l = add b l 1.0

let finish b =
  let last = ref (-1) in
  Array.iteri (fun l c -> if not (Float.equal c 0.0) then last := l) b.b_counts;
  { counts = Array.sub b.b_counts 0 (Int.max 1 (!last + 1)) }

let of_levels doc nodes =
  let b = builder () in
  Array.iter (fun v -> feed b (Document.level doc v)) nodes;
  finish b

let build doc pred = of_levels doc (Predicate.matching_nodes doc pred)

let count_at t l = if l >= 0 && l < Array.length t.counts then t.counts.(l) else 0.0

let max_level t = Array.length t.counts - 1

let child_fraction ~anc ~desc =
  let pairs_all = ref 0.0 and pairs_child = ref 0.0 in
  for la = 0 to max_level anc do
    let ca = count_at anc la in
    if ca > 0.0 then
      for ld = la + 1 to max_level desc do
        let cd = count_at desc ld in
        pairs_all := !pairs_all +. (ca *. cd);
        if Int.equal ld (la + 1) then pairs_child := !pairs_child +. (ca *. cd)
      done
  done;
  if !pairs_all <= 0.0 then 1.0 else !pairs_child /. !pairs_all

let storage_bytes t =
  4
  * Array.fold_left
      (fun acc c -> if not (Float.equal c 0.0) then acc + 1 else acc)
      0 t.counts

let counts t = Array.copy t.counts

let of_counts counts =
  { counts = (if Array.length counts = 0 then [| 0.0 |] else Array.copy counts) }
