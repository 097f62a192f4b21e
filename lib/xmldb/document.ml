type node = int

(* The structure and label columns are indexed by pre-order node index
   over [0 .. size - 1], one 4-byte field per node in a [Bytes.t].  Past
   [size] they hold slack capacity, so an insert writes only the new nodes
   and the shifted tail; [of_elem] and [copy] allocate none.

   A column is stored so that moving a node to another index leaves its
   field unchanged, and an edit moves the tail past it with one
   [Bytes.blit] (memmove) per column.  Tag id, slot, level and start are
   stored as they are; the other three relative to the node: the subtree
   extent as [subtree_last - v], the parent as the offset [v - parent]
   (1 for the root, whose parent is -1) and the end as [end - start].  An
   edit then fixes only what does not move with its node: the extents of
   the ancestor chain (and on insert their end offsets), the parent
   offsets of the chain's following siblings, whose parents stay put while
   they move, and on insert the starts past the point, the one column
   whose values shift.  Every field is below [2^31]: positions are the
   largest values, and [of_elem] and [insert_subtree] refuse a store whose
   [max_pos] would pass [Int32.max_int].

   Texts and attributes are boxed, and moving them would pay the write
   barrier per element, so they sit in a payload indexed by slot instead:
   the [slots] column maps a node to its slot and shifts with the other
   columns, while a payload entry never moves.  A delete frees its nodes'
   slots and an insert reuses them.  A store that was never structurally
   edited has slot = node index and keeps an empty [slots] column; the
   first insert or delete materializes it. *)
type t = {
  mutable size : int;
  mutable tag_ids : Bytes.t;
  mutable tag_names : string array;  (* tag id -> name, with slack *)
  tag_table : (string, int) Hashtbl.t;  (* name -> tag id *)
  mutable slots : Bytes.t;  (* node -> payload slot; empty while slot = node *)
  mutable texts : string array;  (* slot -> text, with slack *)
  mutable attrs : (string * string) list array;  (* slot -> attributes *)
  mutable nslots : int;  (* slots handed out, freed ones included *)
  mutable free : int array;  (* freed slots, a stack of [nfree] *)
  mutable nfree : int;
  mutable starts : Bytes.t;
  mutable end_offs : Bytes.t;  (* end - start *)
  mutable levels : Bytes.t;
  mutable parent_offs : Bytes.t;  (* v - parent *)
  mutable extents : Bytes.t;  (* subtree_last - v *)
  mutable by_tag : node array option array;
      (* tag id -> node indices in document order, collected per tag on
         first lookup.  An edit that moves nodes drops them all, so an
         update stream pays for the index only on the tags it consults
         between edits. *)
  mutable max_pos : int;
}

(* --- 4-byte columns --------------------------------------------------- *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let max_label = Int32.to_int Int32.max_int
let column n = Bytes.create (4 * n)
let[@inline] cells c = Bytes.length c lsr 2

(* Unchecked field access, for loops whose index range is checked
   against the capacity before they start. *)
let[@inline] uget c v = Int32.to_int (get32u c (4 * v))
let[@inline] uset c v x = set32u c (4 * v) (Int32.of_int x)

(* Checked field access: an index outside the column raises like an
   array's would. *)
let[@inline] get c v =
  if v < 0 || v >= cells c then invalid_arg "index out of bounds" else uget c v

let[@inline] set c v x =
  if v < 0 || v >= cells c then invalid_arg "index out of bounds" else uset c v x

let[@inline] add c v d = set c v (get c v + d)

(* Move fields [src .. src + len - 1] to [dst ..]; the ranges may overlap. *)
let move c ~src ~dst len = Bytes.blit c (4 * src) c (4 * dst) (4 * len)

let size t = t.size
let num_tags t = Hashtbl.length t.tag_table
let slot t v = if Bytes.length t.slots = 0 then v else get t.slots v
let start_pos t v = get t.starts v
let end_pos t v = get t.starts v + get t.end_offs v
let level t v = get t.levels v
let parent t v = v - get t.parent_offs v
let subtree_last t v = v + get t.extents v
let subtree_size t v = get t.extents v + 1

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
  set t.slots v s;
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
    set t.tag_ids v (intern t e.tag);
    let s = if Bytes.length t.slots = 0 then v else take_slot t v in
    t.texts.(s) <- e.text;
    t.attrs.(s) <- e.attrs;
    set t.starts v !pos;
    incr pos;
    set t.levels v level;
    set t.parent_offs v (v - parent);
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
      enter c ~parent:v ~level:(get t.levels v + 1)
    | [] ->
      set t.end_offs v (!pos - get t.starts v);
      incr pos;
      set t.extents v (!index - 1 - v);
      decr depth
  done

let of_elem root =
  let n = Elem.size root in
  if (2 * n) - 1 > max_label then
    invalid_arg "Document.of_elem: positions would pass Int32.max_int";
  let t =
    {
      size = n;
      tag_ids = column n;
      tag_names = [||];
      tag_table = Hashtbl.create 64;
      slots = Bytes.empty;
      texts = Array.make n "";
      attrs = Array.make n [];
      nslots = n;
      free = [||];
      nfree = 0;
      starts = column n;
      end_offs = column n;
      levels = column n;
      parent_offs = column n;
      extents = column n;
      by_tag = [||];
      max_pos = (2 * n) - 1;
    }
  in
  fill t root ~at:0 ~parent:(-1) ~level:0 ~pos:0;
  t


(* The copy's payload is compacted back to slot = node index. *)
let copy t =
  let sub c = Bytes.sub c 0 (4 * t.size) in
  let payload a =
    if Bytes.length t.slots = 0 then Array.sub a 0 t.size
    else Array.init t.size (fun v -> a.(uget t.slots v))
  in
  {
    size = t.size;
    tag_ids = sub t.tag_ids;
    tag_names = Array.copy t.tag_names;
    tag_table = Hashtbl.copy t.tag_table;
    slots = Bytes.empty;
    texts = payload t.texts;
    attrs = payload t.attrs;
    nslots = t.size;
    free = [||];
    nfree = 0;
    starts = sub t.starts;
    end_offs = sub t.end_offs;
    levels = sub t.levels;
    parent_offs = sub t.parent_offs;
    extents = sub t.extents;
    (* the index arrays are never written after they are built *)
    by_tag = Array.copy t.by_tag;
    max_pos = t.max_pos;
  }

let max_pos t = t.max_pos
let tag t v = t.tag_names.(get t.tag_ids v)
let tag_id t v = get t.tag_ids v
let text t v = t.texts.(slot t v)
let attrs t v = t.attrs.(slot t v)

let is_ancestor t ~anc ~desc =
  start_pos t anc < start_pos t desc && end_pos t desc < end_pos t anc

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
      if Int.equal (uget t.tag_ids v) id then incr count
    done;
    let nodes = Array.make !count 0 in
    let k = ref 0 in
    for v = 0 to t.size - 1 do
      if Int.equal (uget t.tag_ids v) id then begin
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
(* subtree densely at the locus.  The tail past the edit moves by one  *)
(* blit per column; the boxed payload is written only at the edited    *)
(* nodes.                                                              *)
(* ------------------------------------------------------------------ *)

(* Before the first insert or delete, slot = node index over the whole
   node capacity. *)
let materialize_slots t =
  if Bytes.length t.slots = 0 then begin
    let cap = cells t.tag_ids in
    let slots = column cap in
    for v = 0 to cap - 1 do
      uset slots v v
    done;
    t.slots <- slots
  end

(* The fix-up an edit of [d] nodes next to [from] leaves besides the
   moved tail, made before the tail moves: [a] and each of its ancestors
   gain [d] nodes and [end_shift] on their end offset, and every child of
   theirs at or past [from] (the children of [a] from [from] on, then the
   following siblings of [a] and of each ancestor) moves by [d] while its
   parent stays put, so its parent offset grows by [d].  [from] is a child
   of [a] or [subtree_last a + 1]; once [a]'s children are done the walk
   stands at [a]'s next sibling. *)
let fix_chain t a ~from d ~end_shift =
  let a = ref a and w = ref from in
  while !a >= 0 do
    let last = subtree_last t !a in
    while !w <= last do
      add t.parent_offs !w d;
      w := subtree_last t !w + 1
    done;
    add t.extents !a d;
    if end_shift <> 0 then add t.end_offs !a end_shift;
    a := parent t !a
  done

let delete_subtree t v =
  let n = t.size in
  if v <= 0 || v >= n then
    invalid_arg "Document.delete_subtree: node is the root or out of range";
  materialize_slots t;
  let last = subtree_last t v in
  let k = last - v + 1 in
  (* The doomed nodes' payload slots are freed, their strings dropped. *)
  if t.nfree + k > Array.length t.free then begin
    let free = Array.make (Int.max (t.nfree + k) (2 * Array.length t.free)) 0 in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  for u = v to last do
    let s = get t.slots u in
    t.texts.(s) <- "";
    t.attrs.(s) <- [];
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  done;
  (* A survivor [u < v] with [subtree_last >= v] contains the deleted
     range, i.e. is a strict ancestor of [v]; each loses [k] nodes.  A
     survivor past the range moves [k] down, and so does its parent
     unless that parent is on the chain.  Labels are kept, so no end
     moves. *)
  fix_chain t (parent t v) ~from:(last + 1) (-k) ~end_shift:0;
  List.iter
    (fun c -> move c ~src:(last + 1) ~dst:v (n - 1 - last))
    [ t.tag_ids; t.slots; t.starts; t.end_offs; t.levels; t.parent_offs; t.extents ];
  t.size <- n - k;
  t.by_tag <- [||]

(* Room for [need] nodes in the columns: capacity grows geometrically, so
   a stream of inserts copies every column O(log) times, not once per
   insert.  The payload grows in [take_slot]. *)
let reserve t need =
  let cap = cells t.tag_ids in
  if need > cap then begin
    let cap = Int.max need (cap + (cap / 2) + 1) in
    let grow c =
      let b = column cap in
      Bytes.blit c 0 b 0 (4 * t.size);
      b
    in
    t.tag_ids <- grow t.tag_ids;
    if Bytes.length t.slots > 0 then t.slots <- grow t.slots;
    t.starts <- grow t.starts;
    t.end_offs <- grow t.end_offs;
    t.levels <- grow t.levels;
    t.parent_offs <- grow t.parent_offs;
    t.extents <- grow t.extents
  end

let insert_subtree t ~parent:p ~index elem =
  let n = t.size in
  if p < 0 || p >= n then
    invalid_arg "Document.insert_subtree: parent out of range";
  (* Insertion point: before the [index]-th child, or after the last child
     when [index] is out of the child range.  [pos_idx] is the node index
     the new subtree root takes; [locus] its start position.  [p] has at
     most [last - p] children, so a larger index appends at once; a
     smaller one walks the children. *)
  let last = subtree_last t p in
  let rec point c i =
    if c > last then (c, end_pos t p)
    else if Int.equal i index then (c, start_pos t c)
    else point (subtree_last t c + 1) (i + 1)
  in
  let pos_idx, locus =
    if index < 0 || index >= last - p then (last + 1, end_pos t p) else point (p + 1) 0
  in
  let k = Elem.size elem in
  let shift = 2 * k in
  if t.max_pos > max_label - shift then
    invalid_arg "Document.insert_subtree: positions would pass Int32.max_int";
  reserve t (n + k);
  materialize_slots t;
  (* Below the point only the ancestor-or-self chain of [p] contains the
     locus: its extents grow by [k] and its ends shift, so its end offsets
     grow by [shift].  Any other survivor below the point ends before the
     locus.  The walks run before the tail moves, on today's indices. *)
  fix_chain t p ~from:pos_idx k ~end_shift:shift;
  (* Open the gap: every index and position at or past the point shifts.
     Starts are the one column whose values change; the range was
     checked by [reserve]. *)
  List.iter
    (fun c -> move c ~src:pos_idx ~dst:(pos_idx + k) (n - pos_idx))
    [ t.tag_ids; t.slots; t.end_offs; t.levels; t.parent_offs; t.extents ];
  for u = n - 1 downto pos_idx do
    uset t.starts (u + k) (uget t.starts u + shift)
  done;
  (* New tags are interned after the existing ids, which stay stable. *)
  fill t elem ~at:pos_idx ~parent:p ~level:(level t p + 1) ~pos:locus;
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
