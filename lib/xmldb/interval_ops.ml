(* All set-level functions run a single sweep over the start-sorted node
   list, maintaining a stack of currently-open intervals: before
   considering node [v], every stacked node whose interval ends before
   [start v] is closed; the remaining stacked nodes are exactly [v]'s
   ancestors within the set.

   [stream] is the incremental form of the same sweep: the caller feeds
   nodes one at a time (in document order) with a per-node membership flag,
   so one document traversal can drive many predicate sets at once. *)

type stream = {
  doc : Document.t;
  mutable open_ends : int array;  (* end positions of open set nodes *)
  mutable open_nodes : int array;  (* the nodes themselves, innermost last *)
  mutable depth : int;
  mutable nesting : bool;
}

let stream doc =
  { doc; open_ends = Array.make 16 0; open_nodes = Array.make 16 0; depth = 0; nesting = false }

let feed s v ~in_set =
  let sv = Document.start_pos s.doc v in
  while s.depth > 0 && s.open_ends.(s.depth - 1) < sv do
    s.depth <- s.depth - 1
  done;
  let nearest = if s.depth > 0 then s.open_nodes.(s.depth - 1) else -1 in
  if in_set then begin
    if s.depth > 0 then s.nesting <- true;
    if Int.equal s.depth (Array.length s.open_ends) then begin
      let grow a =
        let bigger = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 bigger 0 s.depth;
        bigger
      in
      s.open_ends <- grow s.open_ends;
      s.open_nodes <- grow s.open_nodes
    end;
    s.open_ends.(s.depth) <- Document.end_pos s.doc v;
    s.open_nodes.(s.depth) <- v;
    s.depth <- s.depth + 1
  end;
  nearest

let nesting_seen s = s.nesting

let sweep doc nodes ~on_open =
  let stack = Stack.create () in
  Array.iter
    (fun v ->
      let sv = Document.start_pos doc v in
      while
        (not (Stack.is_empty stack))
        && Document.end_pos doc (Stack.top stack) < sv
      do
        ignore (Stack.pop stack)
      done;
      on_open stack v;
      Stack.push v stack)
    nodes

let has_nesting doc nodes =
  let s = stream doc in
  Array.iter (fun v -> ignore (feed s v ~in_set:true)) nodes;
  nesting_seen s

let count_nesting_pairs doc nodes =
  let pairs = ref 0 in
  sweep doc nodes ~on_open:(fun stack _v -> pairs := !pairs + Stack.length stack);
  !pairs

let max_nesting_depth doc nodes =
  let best = ref 0 in
  sweep doc nodes ~on_open:(fun stack _v ->
      best := Int.max !best (Stack.length stack + 1));
  !best
