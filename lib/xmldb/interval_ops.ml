(* One stack of open intervals per node set.  Nodes arrive ancestors
   first; before a node is placed, every stacked match that does not
   contain it is closed (an interval left behind contains no later node
   either), so the remaining stack is exactly the node's ancestors within
   the set, innermost on top.  Only the sets with an open match are
   visited, so a node costs O(active + matched), not O(sets).

   The set-level functions below are the one-set case of the same sweep. *)

type resolver = {
  stacks : int array array;
      (* per set: open matches as (start, end, cell) triples, innermost last *)
  depth : int array;  (* per set: open matches *)
  pairs : int array;  (* per set: (ancestor, descendant) pairs seen *)
  active : int array;  (* the sets with an open match: [active.(0 .. nactive-1)] *)
  mutable nactive : int;
}

let resolver sets =
  {
    stacks = Array.make sets [||];
    depth = Array.make sets 0;
    pairs = Array.make sets 0;
    active = Array.make sets 0;
    nactive = 0;
  }

let resolve r ~start_pos ~end_pos ~cell ~matched ~nmatched ~on_nearest =
  let kept = ref 0 in
  for a = 0 to r.nactive - 1 do
    let u = r.active.(a) in
    let st = r.stacks.(u) in
    let d = ref r.depth.(u) in
    while
      !d > 0
      && not (st.((3 * !d) - 3) < start_pos && end_pos < st.((3 * !d) - 2))
    do
      decr d
    done;
    r.depth.(u) <- !d;
    if !d > 0 then begin
      r.active.(!kept) <- u;
      incr kept;
      on_nearest u ~covered:cell ~covering:st.((3 * !d) - 1)
    end
  done;
  r.nactive <- !kept;
  for m = 0 to nmatched - 1 do
    let u = matched.(m) in
    let d = r.depth.(u) in
    if Int.equal d 0 then begin
      r.active.(r.nactive) <- u;
      r.nactive <- r.nactive + 1
    end;
    r.pairs.(u) <- r.pairs.(u) + d;
    if Int.equal (3 * d) (Array.length r.stacks.(u)) then begin
      let bigger = Array.make (Int.max 24 (6 * d)) 0 in
      Array.blit r.stacks.(u) 0 bigger 0 (3 * d);
      r.stacks.(u) <- bigger
    end;
    let st = r.stacks.(u) in
    st.(3 * d) <- start_pos;
    st.((3 * d) + 1) <- end_pos;
    st.((3 * d) + 2) <- cell;
    r.depth.(u) <- d + 1
  done

let nesting_pairs r u = r.pairs.(u)

let has_nesting doc nodes =
  let r = resolver 1 in
  let self = [| 0 |] in
  Array.iter
    (fun v ->
      resolve r ~start_pos:(Document.start_pos doc v) ~end_pos:(Document.end_pos doc v)
        ~cell:v ~matched:self ~nmatched:1
        ~on_nearest:(fun _ ~covered:_ ~covering:_ -> ()))
    nodes;
  nesting_pairs r 0 > 0
