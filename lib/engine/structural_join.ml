open Xmlest_xmldb

(* Shared sweep: walk descendants in document order while maintaining the
   stack of ancestor-list nodes whose intervals are still open.  For each
   descendant, [visit] receives the stack of its ancestors (innermost on
   top). *)
let sweep doc ancs descs ~visit =
  let stack = Stack.create () in
  let na = Array.length ancs in
  let ai = ref 0 in
  Array.iter
    (fun d ->
      let sd = Document.start_pos doc d in
      (* Open every ancestor that starts before [d]. *)
      while !ai < na && Document.start_pos doc ancs.(!ai) < sd do
        let a = ancs.(!ai) in
        incr ai;
        (* Close finished ancestors first. *)
        while
          (not (Stack.is_empty stack))
          && Document.end_pos doc (Stack.top stack) < Document.start_pos doc a
        do
          ignore (Stack.pop stack)
        done;
        Stack.push a stack
      done;
      (* Close ancestors finished before [d]. *)
      while
        (not (Stack.is_empty stack)) && Document.end_pos doc (Stack.top stack) < sd
      do
        ignore (Stack.pop stack)
      done;
      visit stack d)
    descs

let count_pairs ?(axis = `Descendant) doc ancs descs =
  let total = ref 0 in
  (match axis with
  | `Descendant ->
    sweep doc ancs descs ~visit:(fun stack _d ->
        total := !total + Stack.length stack)
  | `Child ->
    sweep doc ancs descs ~visit:(fun stack d ->
        if
          (not (Stack.is_empty stack))
          && Int.equal (Stack.top stack) (Document.parent doc d)
        then incr total));
  !total

let count_following doc before after =
  (* Sort the "before" end positions once; for each "after" node count the
     ends strictly below its start by binary search. *)
  let ends = Array.map (Document.end_pos doc) before in
  Array.sort Int.compare ends;
  let count_below pos =
    let lo = ref 0 and hi = ref (Array.length ends) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ends.(mid) < pos then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.fold_left
    (fun acc v -> acc + count_below (Document.start_pos doc v))
    0 after
