type node = int

(* The int columns are indexed by pre-order node index over
   [0 .. size - 1].  Past [size] they hold slack capacity, so an insert
   writes only the new nodes and the shifted tail; [of_elem] and [copy]
   allocate none.  Texts and attributes are boxed, and moving them would
   pay the write barrier per element, so they sit in a payload indexed by
   slot instead: the [slots] column maps a node to its slot and shifts
   with the int columns, while a payload entry never moves.  A delete
   frees its nodes' slots and an insert reuses them.  A store that was
   never structurally edited has slot = node index and keeps no [slots]
   array; the first insert or delete materializes it. *)
type t = {
  mutable size : int;
  mutable tag_ids : int array;
  mutable tag_names : string array;  (* tag id -> name, with slack *)
  tag_table : (string, int) Hashtbl.t;  (* name -> tag id *)
  mutable slots : int array;  (* node -> payload slot; [||] while slot = node *)
  mutable texts : string array;  (* slot -> text, with slack *)
  mutable attrs : (string * string) list array;  (* slot -> attributes *)
  mutable nslots : int;  (* slots handed out, freed ones included *)
  mutable free : int array;  (* freed slots, a stack of [nfree] *)
  mutable nfree : int;
  mutable starts : int array;
  mutable ends : int array;
  mutable levels : int array;
  mutable parents : int array;
  mutable subtree_lasts : int array;
  mutable by_tag : node array option array;
      (* tag id -> node indices in document order, collected per tag on
         first lookup.  An edit that moves nodes drops them all, so an
         update stream pays for the index only on the tags it consults
         between edits. *)
  mutable max_pos : int;
}

let size t = t.size
let num_tags t = Hashtbl.length t.tag_table
let slot t v = if Array.length t.slots = 0 then v else t.slots.(v)

let intern t tag =
  match Hashtbl.find_opt t.tag_table tag with
  | Some id -> id
  | None ->
    let id = num_tags t in
    if id >= Array.length t.tag_names then begin
      let names = Array.make (Int.max 8 (2 * id)) "" in
      Array.blit t.tag_names 0 names 0 id;
      t.tag_names <- names
    end;
    t.tag_names.(id) <- tag;
    Hashtbl.add t.tag_table tag id;
    id

(* A payload slot for new node [v]: a freed one if any, else the next
   fresh one, the payload growing geometrically when it is full. *)
let take_slot t v =
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      let s = t.nslots in
      let cap = Array.length t.texts in
      if s >= cap then begin
        let cap = cap + (cap / 2) + 1 in
        let grow a fresh =
          let b = Array.make cap fresh in
          Array.blit a 0 b 0 s;
          b
        in
        t.texts <- grow t.texts "";
        t.attrs <- grow t.attrs []
      end;
      t.nslots <- s + 1;
      s
    end
  in
  t.slots.(v) <- s;
  s

(* Label [elem]'s subtree in pre-order into indices [at ..] and positions
   [pos ..], its root a child of [parent] at [level].  An explicit stack
   of (open node, its children not yet labeled) keeps arbitrarily deep
   documents off the OCaml stack. *)
let fill t elem ~at ~parent ~level ~pos =
  let pos = ref pos and index = ref at in
  let open_nodes = ref (Array.make 16 0) in
  let pending = ref (Array.make 16 []) in
  let depth = ref 0 in
  let enter (e : Elem.t) ~parent ~level =
    let v = !index in
    incr index;
    t.tag_ids.(v) <- intern t e.tag;
    let s = if Array.length t.slots = 0 then v else take_slot t v in
    t.texts.(s) <- e.text;
    t.attrs.(s) <- e.attrs;
    t.starts.(v) <- !pos;
    incr pos;
    t.levels.(v) <- level;
    t.parents.(v) <- parent;
    if Int.equal !depth (Array.length !open_nodes) then begin
      let grow a fresh =
        let b = Array.make (2 * !depth) fresh in
        Array.blit a 0 b 0 !depth;
        b
      in
      open_nodes := grow !open_nodes 0;
      pending := grow !pending []
    end;
    !open_nodes.(!depth) <- v;
    !pending.(!depth) <- e.children;
    incr depth
  in
  enter elem ~parent ~level;
  while !depth > 0 do
    let top = !depth - 1 in
    let v = !open_nodes.(top) in
    match !pending.(top) with
    | c :: rest ->
      !pending.(top) <- rest;
      enter c ~parent:v ~level:(t.levels.(v) + 1)
    | [] ->
      t.ends.(v) <- !pos;
      incr pos;
      t.subtree_lasts.(v) <- !index - 1;
      decr depth
  done

let of_elem root =
  let n = Elem.size root in
  let t =
    {
      size = n;
      tag_ids = Array.make n 0;
      tag_names = [||];
      tag_table = Hashtbl.create 64;
      slots = [||];
      texts = Array.make n "";
      attrs = Array.make n [];
      nslots = n;
      free = [||];
      nfree = 0;
      starts = Array.make n 0;
      ends = Array.make n 0;
      levels = Array.make n 0;
      parents = Array.make n (-1);
      subtree_lasts = Array.make n 0;
      by_tag = [||];
      max_pos = (2 * n) - 1;
    }
  in
  fill t root ~at:0 ~parent:(-1) ~level:0 ~pos:0;
  t


(* The copy's payload is compacted back to slot = node index. *)
let copy t =
  let sub a = Array.sub a 0 t.size in
  let payload a =
    if Array.length t.slots = 0 then sub a else Array.init t.size (fun v -> a.(t.slots.(v)))
  in
  {
    size = t.size;
    tag_ids = sub t.tag_ids;
    tag_names = Array.copy t.tag_names;
    tag_table = Hashtbl.copy t.tag_table;
    slots = [||];
    texts = payload t.texts;
    attrs = payload t.attrs;
    nslots = t.size;
    free = [||];
    nfree = 0;
    starts = sub t.starts;
    ends = sub t.ends;
    levels = sub t.levels;
    parents = sub t.parents;
    subtree_lasts = sub t.subtree_lasts;
    (* the index arrays are never written after they are built *)
    by_tag = Array.copy t.by_tag;
    max_pos = t.max_pos;
  }

let max_pos t = t.max_pos
let tag t v = t.tag_names.(t.tag_ids.(v))
let tag_id t v = t.tag_ids.(v)
let text t v = t.texts.(slot t v)
let attrs t v = t.attrs.(slot t v)
let start_pos t v = t.starts.(v)
let end_pos t v = t.ends.(v)
let level t v = t.levels.(v)
let parent t v = t.parents.(v)
let subtree_last t v = t.subtree_lasts.(v)
let subtree_size t v = t.subtree_lasts.(v) - v + 1

let is_ancestor t ~anc ~desc =
  t.starts.(anc) < t.starts.(desc) && t.ends.(desc) < t.ends.(anc)

let iter t f =
  for v = 0 to t.size - 1 do
    f v
  done

let distinct_tags t =
  Array.to_list (Array.sub t.tag_names 0 (num_tags t)) |> List.sort String.compare

let lookup_tag_id t tag = Hashtbl.find_opt t.tag_table tag

(* A tag's nodes: one pass counts them, a second collects them. *)
let nodes_with_tag_id t id =
  if id >= Array.length t.by_tag then begin
    let grown = Array.make (num_tags t) None in
    Array.blit t.by_tag 0 grown 0 (Array.length t.by_tag);
    t.by_tag <- grown
  end;
  match t.by_tag.(id) with
  | Some nodes -> nodes
  | None ->
    let count = ref 0 in
    for v = 0 to t.size - 1 do
      if Int.equal t.tag_ids.(v) id then incr count
    done;
    let nodes = Array.make !count 0 in
    let k = ref 0 in
    for v = 0 to t.size - 1 do
      if Int.equal t.tag_ids.(v) id then begin
        nodes.(!k) <- v;
        incr k
      end
    done;
    t.by_tag.(id) <- Some nodes;
    nodes

let nodes_with_tag t tag =
  match lookup_tag_id t tag with
  | Some id -> nodes_with_tag_id t id
  | None -> [||]


(* ------------------------------------------------------------------ *)
(* In-place edits for the maintenance subsystem (lib/maintain).        *)
(* Deletes are label-preserving (survivors keep their interval         *)
(* positions, leaving holes); inserts shift every position at or after *)
(* the insertion locus right by [2 * size subtree] and label the new   *)
(* subtree densely at the locus.  Only int columns move, slots         *)
(* included, by loops typed at [int array], which store without the    *)
(* write barrier that [Array.blit] pays per element into a major-heap  *)
(* array; the boxed payload is written only at the edited nodes.       *)
(* ------------------------------------------------------------------ *)

(* Before the first insert or delete, slot = node index over the whole
   node capacity. *)
let materialize_slots t =
  if Array.length t.slots = 0 then t.slots <- Array.init (Array.length t.tag_ids) Fun.id

let delete_subtree t v =
  let n = t.size in
  if v <= 0 || v >= n then
    invalid_arg "Document.delete_subtree: node is the root or out of range";
  materialize_slots t;
  let last = t.subtree_lasts.(v) in
  let k = last - v + 1 in
  (* The doomed nodes' payload slots are freed, their strings dropped. *)
  if t.nfree + k > Array.length t.free then begin
    let free = Array.make (Int.max (t.nfree + k) (2 * Array.length t.free)) 0 in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  for u = v to last do
    let s = t.slots.(u) in
    t.texts.(s) <- "";
    t.attrs.(s) <- [];
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  done;
  (* A survivor [u < v] with [subtree_last >= v] contains the deleted
     range, i.e. is an ancestor of [v]: below the gap the fixup is a walk
     up the ancestor chain (parent indices below [v] never change). *)
  let u = ref t.parents.(v) in
  while !u >= 0 do
    t.subtree_lasts.(!u) <- t.subtree_lasts.(!u) - k;
    u := t.parents.(!u)
  done;
  (* Compact the tail over the gap; indices past [last] drop by [k]. *)
  for u = last + 1 to n - 1 do
    let d = u - k in
    t.tag_ids.(d) <- t.tag_ids.(u);
    t.slots.(d) <- t.slots.(u);
    t.starts.(d) <- t.starts.(u);
    t.ends.(d) <- t.ends.(u);
    t.levels.(d) <- t.levels.(u);
    t.subtree_lasts.(d) <- t.subtree_lasts.(u) - k;
    let p = t.parents.(u) in
    t.parents.(d) <- (if p > last then p - k else p)
  done;
  t.size <- n - k;
  t.by_tag <- [||]

(* Room for [need] nodes in the int columns: capacity grows
   geometrically, so a stream of inserts copies every column O(log)
   times, not once per insert.  The payload grows in [take_slot]. *)
let reserve t need =
  let cap = Array.length t.tag_ids in
  if need > cap then begin
    let cap = Int.max need (cap + (cap / 2) + 1) in
    let grow a fresh =
      let b = Array.make cap fresh in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.tag_ids <- grow t.tag_ids 0;
    if Array.length t.slots > 0 then t.slots <- grow t.slots 0;
    t.starts <- grow t.starts 0;
    t.ends <- grow t.ends 0;
    t.levels <- grow t.levels 0;
    t.parents <- grow t.parents 0;
    t.subtree_lasts <- grow t.subtree_lasts 0
  end

let insert_subtree t ~parent ~index elem =
  let n = t.size in
  if parent < 0 || parent >= n then
    invalid_arg "Document.insert_subtree: parent out of range";
  (* Insertion point: before the [index]-th child, or after the last child
     when [index] is out of the child range.  [pos_idx] is the node index
     the new subtree root takes; [locus] its start position. *)
  let last = t.subtree_lasts.(parent) in
  let rec point c i =
    if c > last then (c, t.ends.(parent))
    else if Int.equal i index then (c, t.starts.(c))
    else point (t.subtree_lasts.(c) + 1) (i + 1)
  in
  let pos_idx, locus = point (parent + 1) 0 in
  let k = Elem.size elem in
  let shift = 2 * k in
  reserve t (n + k);
  materialize_slots t;
  (* Open the gap: every index and position at or past the point shifts. *)
  for u = n - 1 downto pos_idx do
    let d = u + k in
    t.tag_ids.(d) <- t.tag_ids.(u);
    t.slots.(d) <- t.slots.(u);
    t.starts.(d) <- t.starts.(u) + shift;
    t.ends.(d) <- t.ends.(u) + shift;
    t.levels.(d) <- t.levels.(u);
    t.subtree_lasts.(d) <- t.subtree_lasts.(u) + k;
    let p = t.parents.(u) in
    t.parents.(d) <- (if p >= pos_idx then p + k else p)
  done;
  (* Below the point only the ancestor-or-self chain of [parent] contains
     the locus: its extents grow by [k] and its ends shift.  Any other
     survivor below the point ends before the locus. *)
  let u = ref parent in
  while !u >= 0 do
    t.subtree_lasts.(!u) <- t.subtree_lasts.(!u) + k;
    t.ends.(!u) <- t.ends.(!u) + shift;
    u := t.parents.(!u)
  done;
  (* New tags are interned after the existing ids, which stay stable. *)
  fill t elem ~at:pos_idx ~parent ~level:(t.levels.(parent) + 1) ~pos:locus;
  t.size <- n + k;
  t.max_pos <- t.max_pos + shift;
  t.by_tag <- [||];
  pos_idx

let replace_text t v text =
  if v < 0 || v >= t.size then
    invalid_arg "Document.replace_text: node out of range";
  t.texts.(slot t v) <- text

let replace_attrs t v al =
  if v < 0 || v >= t.size then
    invalid_arg "Document.replace_attrs: node out of range";
  t.attrs.(slot t v) <- al
