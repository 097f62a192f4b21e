type node = int

type t = {
  tag_ids : int array;
  tag_names : string array;  (* tag id -> name *)
  tag_table : (string, int) Hashtbl.t;  (* name -> tag id *)
  texts : string array;
  attrs : (string * string) list array;
  starts : int array;
  ends : int array;
  levels : int array;
  parents : int array;
  subtree_lasts : int array;
  by_tag : node array array Lazy.t;
      (* tag id -> node indices in document order.  Lazy so that edit
         helpers, which are applied in long update streams, don't pay the
         full re-index on every revision — only on the revisions whose
         tag index is actually consulted. *)
  max_pos : int;
}

let dummy_root_tag = "#root"

(* Tag id -> node indices in document order, by counting sort: one pass
   sizes every bucket, a second fills them in index order. *)
let index_by_tag ~tag_ids ~num_tags =
  let counts = Array.make num_tags 0 in
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) tag_ids;
  let by_tag = Array.map (fun c -> Array.make c 0) counts in
  Array.fill counts 0 num_tags 0;
  Array.iteri
    (fun v id ->
      by_tag.(id).(counts.(id)) <- v;
      counts.(id) <- counts.(id) + 1)
    tag_ids;
  by_tag

(* Compile an element tree into the store with an explicit stack so that
   arbitrarily deep documents do not overflow the OCaml stack. *)
let of_elem root =
  let n = Elem.size root in
  let tag_ids = Array.make n 0 in
  let texts = Array.make n "" in
  let attrs = Array.make n [] in
  let starts = Array.make n 0 in
  let ends = Array.make n 0 in
  let levels = Array.make n 0 in
  let parents = Array.make n (-1) in
  let subtree_lasts = Array.make n 0 in
  let tag_table = Hashtbl.create 64 in
  let tag_names = ref [] in
  let tag_count = ref 0 in
  let intern tag =
    match Hashtbl.find_opt tag_table tag with
    | Some id -> id
    | None ->
      let id = !tag_count in
      incr tag_count;
      Hashtbl.add tag_table tag id;
      tag_names := tag :: !tag_names;
      id
  in
  let counter = ref 0 in
  let next_pos () =
    let p = !counter in
    incr counter;
    p
  in
  let index = ref 0 in
  (* Stack frames: Enter (elem, parent index, level) to open a node,
     Exit idx to close it. *)
  let stack = ref [ `Enter (root, -1, 0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> assert false
    | frame :: rest ->
      stack := rest;
      (match frame with
      | `Enter (e, parent, lvl) ->
        let v = !index in
        incr index;
        tag_ids.(v) <- intern e.Elem.tag;
        texts.(v) <- e.Elem.text;
        attrs.(v) <- e.Elem.attrs;
        starts.(v) <- next_pos ();
        levels.(v) <- lvl;
        parents.(v) <- parent;
        stack := `Exit v :: !stack;
        (* Push children so that the first child is processed first. *)
        List.iter
          (fun c -> stack := `Enter (c, v, lvl + 1) :: !stack)
          (List.rev e.Elem.children)
      | `Exit v ->
        ends.(v) <- next_pos ();
        subtree_lasts.(v) <- !index - 1)
  done;
  let tag_names = Array.of_list (List.rev !tag_names) in
  let by_tag =
    Lazy.from_val (index_by_tag ~tag_ids ~num_tags:(Array.length tag_names))
  in
  {
    tag_ids;
    tag_names;
    tag_table;
    texts;
    attrs;
    starts;
    ends;
    levels;
    parents;
    subtree_lasts;
    by_tag;
    max_pos = !counter - 1;
  }

let of_forest docs = of_elem (Elem.make ~children:docs dummy_root_tag)

let size t = Array.length t.tag_ids

let has_dummy_root t =
  Array.length t.tag_ids > 0 && String.equal t.tag_names.(t.tag_ids.(0)) dummy_root_tag
let max_pos t = t.max_pos
let tag t v = t.tag_names.(t.tag_ids.(v))
let tag_id t v = t.tag_ids.(v)
let text t v = t.texts.(v)
let attrs t v = t.attrs.(v)
let start_pos t v = t.starts.(v)
let end_pos t v = t.ends.(v)
let level t v = t.levels.(v)
let parent t v = t.parents.(v)
let subtree_last t v = t.subtree_lasts.(v)
let subtree_size t v = t.subtree_lasts.(v) - v + 1

let ancestors t v =
  let rec up u acc = if u < 0 then acc else up t.parents.(u) (u :: acc) in
  up t.parents.(v) []

let is_ancestor t ~anc ~desc =
  t.starts.(anc) < t.starts.(desc) && t.ends.(desc) < t.ends.(anc)

let is_parent t ~parent:p ~child = Int.equal t.parents.(child) p

let document_roots_impl t =
  if Array.length t.tag_ids = 0 then []
  else if has_dummy_root t then begin
    (* children of node 0 *)
    let out = ref [] in
    let u = ref 1 in
    while !u < Array.length t.tag_ids do
      out := !u :: !out;
      u := t.subtree_lasts.(!u) + 1
    done;
    List.rev !out
  end
  else [ 0 ]

let document_roots t = document_roots_impl t

let children t v =
  let last = t.subtree_lasts.(v) in
  let rec go acc u =
    if u > last then List.rev acc
    else go (u :: acc) (t.subtree_lasts.(u) + 1)
  in
  go [] (v + 1)

let iter t f =
  for v = 0 to size t - 1 do
    f v
  done

let distinct_tags t =
  Array.to_list t.tag_names |> List.sort String.compare

let lookup_tag_id t tag = Hashtbl.find_opt t.tag_table tag

let num_tags t = Array.length t.tag_names
let tag_name t id = t.tag_names.(id)
let nodes_with_tag_id t id = (Lazy.force t.by_tag).(id)

let nodes_with_tag t tag =
  match lookup_tag_id t tag with
  | Some id -> (Lazy.force t.by_tag).(id)
  | None -> [||]

let tag_count t tag = Array.length (nodes_with_tag t tag)

(* ------------------------------------------------------------------ *)
(* Edit helpers for the maintenance subsystem (lib/maintain).          *)
(* Edits are persistent: they return a new store and never mutate the  *)
(* argument.  Deletes are label-preserving (survivors keep their       *)
(* interval positions, leaving holes); inserts shift every position at *)
(* or after the insertion locus right by [2 * size subtree] and label  *)
(* the new subtree densely at the locus.                               *)
(* ------------------------------------------------------------------ *)

let delete_subtree t v =
  let n = size t in
  if v <= 0 || v >= n then
    invalid_arg "Document.delete_subtree: node is the root or out of range";
  let last = t.subtree_lasts.(v) in
  let k = last - v + 1 in
  let n' = n - k in
  let splice src =
    let dst = Array.make n' src.(0) in
    Array.blit src 0 dst 0 v;
    Array.blit src (last + 1) dst v (n - last - 1);
    dst
  in
  let tag_ids = splice t.tag_ids in
  let texts = splice t.texts in
  let attrs = splice t.attrs in
  let starts = splice t.starts in
  let ends = splice t.ends in
  let levels = splice t.levels in
  let parents = splice t.parents in
  let subtree_lasts = splice t.subtree_lasts in
  (* Surviving node indices > last drop by [k]; ancestors of [v] lose [k]
     nodes from their subtrees.  A survivor [u < v] with
     [subtree_last >= v] necessarily contains the deleted range, i.e. is
     an ancestor of [v] — so the below-the-slot fixup is a walk up the
     ancestor chain, not a scan (parent indices below [v] are all < v and
     never need adjusting). *)
  let u = ref t.parents.(v) in
  while !u >= 0 do
    subtree_lasts.(!u) <- subtree_lasts.(!u) - k;
    u := parents.(!u)
  done;
  for u = v to n' - 1 do
    subtree_lasts.(u) <- subtree_lasts.(u) - k;
    if parents.(u) > last then parents.(u) <- parents.(u) - k
  done;
  (* [num_tags] must be bound outside the thunk: a lazy body mentioning
     [t] captures the whole previous revision, chaining every edit's
     predecessor into a leak across long update streams. *)
  let num_tags = Array.length t.tag_names in
  {
    t with
    tag_ids;
    texts;
    attrs;
    starts;
    ends;
    levels;
    parents;
    subtree_lasts;
    by_tag = lazy (index_by_tag ~tag_ids ~num_tags);
  }

let insert_subtree t ~parent ~index elem =
  let n = size t in
  if parent < 0 || parent >= n then
    invalid_arg "Document.insert_subtree: parent out of range";
  let kids = children t parent in
  let nkids = List.length kids in
  (* Insertion slot: before the [index]-th child, or appended as the last
     child when [index >= nkids].  [pos_idx] is the node index the new
     subtree root takes; [locus] its start position. *)
  let pos_idx, locus =
    if index >= 0 && index < nkids then begin
      let c = List.nth kids index in
      (c, t.starts.(c))
    end
    else (t.subtree_lasts.(parent) + 1, t.ends.(parent))
  in
  let k = Elem.size elem in
  let shift = 2 * k in
  let n' = n + k in
  let grow src fresh =
    let dst = Array.make n' fresh in
    Array.blit src 0 dst 0 pos_idx;
    Array.blit src pos_idx dst (pos_idx + k) (n - pos_idx);
    dst
  in
  let tag_ids = grow t.tag_ids 0 in
  let texts = grow t.texts "" in
  let attrs = grow t.attrs [] in
  let starts = grow t.starts 0 in
  let ends = grow t.ends 0 in
  let levels = grow t.levels 0 in
  let parents = grow t.parents (-1) in
  let subtree_lasts = grow t.subtree_lasts 0 in
  (* Fix survivors.  Below the slot, only the ancestor-or-self chain of
     [parent] contains the locus: its extents grow by [k] and its end
     positions shift; any other survivor below the slot keeps its index,
     positions, extent and parent (a non-chain [u < pos_idx] has
     [subtree_last < pos_idx] and both positions before the locus).  At or
     past the slot, every index and position shifts. *)
  let u = ref parent in
  while !u >= 0 do
    subtree_lasts.(!u) <- subtree_lasts.(!u) + k;
    ends.(!u) <- ends.(!u) + shift;
    u := parents.(!u)
  done;
  for u = pos_idx + k to n' - 1 do
    subtree_lasts.(u) <- subtree_lasts.(u) + k;
    if parents.(u) >= pos_idx then parents.(u) <- parents.(u) + k;
    starts.(u) <- starts.(u) + shift;
    ends.(u) <- ends.(u) + shift
  done;
  (* Intern any new tags; the table is mutable, so copy before extending. *)
  let tag_table = Hashtbl.copy t.tag_table in
  let extra = ref [] in
  let tag_count = ref (Array.length t.tag_names) in
  let intern tag =
    match Hashtbl.find_opt tag_table tag with
    | Some id -> id
    | None ->
      let id = !tag_count in
      incr tag_count;
      Hashtbl.add tag_table tag id;
      extra := tag :: !extra;
      id
  in
  (* DFS-label the new subtree over indices [pos_idx .. pos_idx + k - 1]
     and positions [locus .. locus + shift - 1]. *)
  let counter = ref locus in
  let next_pos () =
    let p = !counter in
    incr counter;
    p
  in
  let idx = ref pos_idx in
  let stack = ref [ `Enter (elem, parent, t.levels.(parent) + 1) ] in
  while !stack <> [] do
    match !stack with
    | [] -> assert false
    | frame :: rest ->
      stack := rest;
      (match frame with
      | `Enter (e, par, lvl) ->
        let v = !idx in
        incr idx;
        tag_ids.(v) <- intern e.Elem.tag;
        texts.(v) <- e.Elem.text;
        attrs.(v) <- e.Elem.attrs;
        starts.(v) <- next_pos ();
        levels.(v) <- lvl;
        parents.(v) <- par;
        stack := `Exit v :: !stack;
        List.iter
          (fun c -> stack := `Enter (c, v, lvl + 1) :: !stack)
          (List.rev e.Elem.children)
      | `Exit v ->
        ends.(v) <- next_pos ();
        subtree_lasts.(v) <- !idx - 1)
  done;
  let tag_names =
    if List.compare_length_with !extra 0 = 0 then t.tag_names
    else Array.append t.tag_names (Array.of_list (List.rev !extra))
  in
  (* Bound outside the thunk so the lazy captures no document revision. *)
  let num_tags = Array.length tag_names in
  let doc =
    {
      tag_ids;
      tag_names;
      tag_table;
      texts;
      attrs;
      starts;
      ends;
      levels;
      parents;
      subtree_lasts;
      by_tag = lazy (index_by_tag ~tag_ids ~num_tags);
      max_pos = t.max_pos + shift;
    }
  in
  (doc, pos_idx)

let replace_text t v text =
  if v < 0 || v >= size t then
    invalid_arg "Document.replace_text: node out of range";
  let texts = Array.copy t.texts in
  texts.(v) <- text;
  { t with texts }

let replace_attrs t v al =
  if v < 0 || v >= size t then
    invalid_arg "Document.replace_attrs: node out of range";
  let attrs = Array.copy t.attrs in
  attrs.(v) <- al;
  { t with attrs }
