open Xmlest_xmldb
open Xmlest_query
open Xmlest_histogram

type accumulators = {
  coverage : Coverage_histogram.builder;
  levels : Level_histogram.builder option;
  mutable pairs : int;
}

(* Per-predicate maintained statistics.  [hist] is the very object the
   summary entry (and the coefficient catalog) holds, mutated in place via
   [Position_histogram.add] so that every edit bumps its version counter
   and cached pH-join coefficients invalidate for free.  [acc] holds the
   summary's own build accumulators, edited in place too; the summary
   finishes them after each apply batch.  A tracked on-demand predicate
   has none: only its position histogram is maintained. *)
type pred_state = {
  pred : Predicate.t;
  name : string;
  hist : Position_histogram.t;
  acc : accumulators option;
  mutable touched : int;  (* matching nodes whose statistics an edit moved *)
}

type t = {
  doc : Document.t;  (* private working copy, edited in place *)
  grid : Grid.t;
  mutable preds : pred_state array;
      (* the base predicates in [init]'s order, then the on-demand ones
         handed over by [track] *)
  base : int;  (* how many of [preds] are base predicates *)
  pop : Position_histogram.t;  (* shared with the summary *)
  mutable disp : Predicate.dispatch;  (* decides [preds], by their indices *)
  mutable matched : int array;  (* the indices [matches] found last *)
  mutable updates : int;
}

let document t = t.doc

(* --- small helpers ----------------------------------------------------- *)

let cell_idx t v =
  let start_pos = Document.start_pos t.doc v and end_pos = Document.end_pos t.doc v in
  let i, j = Grid.cell_of_node t.grid ~start_pos ~end_pos in
  Grid.index t.grid ~i ~j

let add_cell t h c d =
  let g = t.grid.Grid.size in
  Position_histogram.add h ~i:(c / g) ~j:(c mod g) d

let cvg_add acc ~covered ~covering d =
  Coverage_histogram.add acc.coverage ~covered ~covering d

let level_add acc doc v d =
  Option.iter (fun lb -> Level_histogram.add lb (Document.level doc v) d) acc.levels

(* The dispatch table resolves tag names to the document's ids when it is
   built, so it is rebuilt when [track] adds a predicate and when an
   insert interns a new tag. *)
let redispatch t =
  t.disp <- Predicate.dispatch t.doc (Array.to_list (Array.map (fun ps -> ps.pred) t.preds));
  t.matched <- Array.make (Array.length t.preds) 0

(* The predicates [w] matches, as indices into [t.preds], in
   [t.matched.(0 .. m-1)]; returns [m]. *)
let matches t w =
  let m = ref 0 in
  Predicate.dispatch_node t.disp t.doc w ~f:(fun k ->
      t.matched.(!m) <- k;
      incr m);
  !m

(* --- nearest matching ancestors ----------------------------------------- *)

(* Every edit feeds the builds' one resolver, one set per predicate, the
   nodes it visits, each after its ancestors.  [visit] feeds [w] to [res]
   as a member of the sets it matches, or of [t.matched.(0 .. m-1)] when
   [m] is given, and returns their count. *)
let resolver t = Interval_ops.resolver (Array.length t.preds)

let visit ?m t res w ~cell ~on_nearest =
  let m = match m with Some m -> m | None -> matches t w in
  Interval_ops.resolve res ~start_pos:(Document.start_pos t.doc w)
    ~end_pos:(Document.end_pos t.doc w) ~cell ~matched:t.matched ~nmatched:m ~on_nearest;
  m

(* Add [f k] to each base predicate [k]'s nesting pairs. *)
let add_pairs t f =
  Array.iteri (fun k ps -> Option.iter (fun acc -> acc.pairs <- acc.pairs + f k) ps.acc) t.preds

(* Visit [v]'s strict ancestors with an index past [above] (all of them
   by default), root first; by default as context counted nowhere. *)
let open_ancestors ?(above = -1) ?(on_nearest = fun _ ~covered:_ ~covering:_ -> ()) t res v ~cell =
  let rec chain u acc = if u <= above then acc else chain (Document.parent t.doc u) (u :: acc) in
  List.iter
    (fun u -> ignore (visit t res u ~cell:(cell u) ~on_nearest : int))
    (chain (Document.parent t.doc v) [])

(* --- adoption ----------------------------------------------------------- *)

let new_state pred hist acc = { pred; name = Predicate.name pred; hist; acc; touched = 0 }

(* The engine edits its own copy of [doc], so the caller's document never
   changes under it.  Every statistic is adopted as it stands: nothing is
   derived from the document here. *)
let init ~grid ~pop ~entries doc =
  let doc = Document.copy doc in
  let preds =
    Array.of_list (List.map (fun (pred, hist, acc) -> new_state pred hist (Some acc)) entries)
  in
  let disp = Predicate.dispatch doc [] in
  let t = { doc; grid; preds; base = Array.length preds; pop; disp; matched = [||]; updates = 0 } in
  redispatch t;
  t

let track t pred hist =
  t.preds <- Array.append t.preds [| new_state pred hist None |];
  redispatch t

(* Add ([sign = 1]) or subtract ([sign = -1]) the subtree range
   [lo .. hi] of [doc] to or from every maintained statistic: population
   and histogram mass, levels, the nesting pairs each node closes as the
   descendant endpoint, and each node's own (covered-side) coverage
   entry; a tracked predicate's histogram mass only.  Everything is read
   off the working copy, so the range must be the doomed subtree before
   the delete or the inserted one after the insert; a same-grid rebuild
   buckets the nodes identically, via the clamped [Grid.cell_of_node].
   The range's pairs are the ones counted after [lo]'s ancestors. *)
let feed_range t ~sign lo hi =
  let d = float_of_int sign in
  let res = resolver t in
  open_ancestors t res lo ~cell:(cell_idx t);
  let above = Array.init (Array.length t.preds) (Interval_ops.nesting_pairs res) in
  let on_nearest u ~covered ~covering =
    Option.iter (fun acc -> cvg_add acc ~covered ~covering d) t.preds.(u).acc
  in
  for w = lo to hi do
    let c = cell_idx t w in
    add_cell t t.pop c d;
    for x = 0 to visit t res w ~cell:c ~on_nearest - 1 do
      let ps = t.preds.(t.matched.(x)) in
      add_cell t ps.hist c d;
      ps.touched <- ps.touched + 1;
      Option.iter (fun acc -> level_add acc t.doc w d) ps.acc
    done
  done;
  add_pairs t (fun u -> sign * (Interval_ops.nesting_pairs res u - above.(u)))

(* --- deletions --------------------------------------------------------- *)

(* Subtree deletion is label-preserving, so survivors keep their cells and
   their ancestor chains (an ancestor of a survivor cannot sit inside the
   deleted subtree).  Every removed coverage contribution has its covered
   node inside the subtree, and every removed nesting pair has its
   descendant endpoint there, so one sweep over the doomed range settles
   all statistics exactly. *)
let apply_delete t v =
  let doc = t.doc in
  if v <= 0 || v >= Document.size doc then
    invalid_arg "Apply: delete node is the root or out of range";
  feed_range t ~sign:(-1) v (Document.subtree_last doc v);
  Document.delete_subtree doc v

(* --- insertions -------------------------------------------------------- *)

(* Call [f] on every node with a start or end position in [lo, hi), by
   replaying the document's open and close events over that window.  From
   the innermost node open at [lo], the next event is the next node's
   start when that comes before the open node's end, and that end
   otherwise.  Positions are distinct, so the walk costs at most
   [hi - lo] events, after a binary search and a walk up to the open node
   (requires [start_pos 0 < lo]). *)
let iter_window doc ~lo ~hi f =
  let n = Document.size doc in
  let a = ref 0 and b = ref n in
  while !b - !a > 1 do
    let m = (!a + !b) / 2 in
    if Document.start_pos doc m < lo then a := m else b := m
  done;
  let cur = ref !a and next = ref (!a + 1) in
  while !cur >= 0 && Document.end_pos doc !cur < lo do
    cur := Document.parent doc !cur
  done;
  let opens () = if !next < n then Document.start_pos doc !next else max_int in
  let closes () = if !cur >= 0 then Document.end_pos doc !cur else max_int in
  while Int.min (opens ()) (closes ()) < hi do
    if opens () < closes () then begin
      f !next;
      cur := !next;
      incr next
    end
    else begin
      f !cur;
      cur := Document.parent doc !cur
    end
  done

(* One exact path for appends and interior inserts.  Inserting [k] nodes
   at index [root] changes no survivor's ancestors or matches, so counts,
   levels and nesting pairs only gain the new subtree's.  What shifts are
   positions, by [2k]: the end of every node on [parent]'s
   ancestor-or-self chain, and both ends of every survivor past the locus.
   A shifted node's statistics change only when its cell does, i.e. when
   a shifted position crossed one of the grid's boundaries (clamping past
   [max_pos] starts at the last one): its new position then lies less
   than [2k] past that boundary.  Those windows, beyond the new subtree's
   positions, are searched for the movers, so an insert costs O(g k) here
   rather than a compare of every survivor.  A mover re-keys its
   population and histogram mass, and every coverage entry with a mover
   at either end follows both of its nodes' cells. *)
let apply_insert t ~parent ~index subtree =
  let doc = t.doc in
  if parent < 0 || parent >= Document.size doc then
    invalid_arg "Apply: insert parent out of range";
  let tags = Document.num_tags doc in
  let root = Document.insert_subtree doc ~parent ~index subtree in
  if Document.num_tags doc > tags then redispatch t;
  let k = Document.subtree_size doc root in
  let shift = 2 * k in
  (* Before the edit a survivor past the new subtree sat [shift] lower at
     both ends; a chain node (index below [root]) at its end only. *)
  let shifted_cell w =
    let s = Document.start_pos doc w in
    let i, j =
      Grid.cell_of_node t.grid
        ~start_pos:(if w < root then s else s - shift)
        ~end_pos:(Document.end_pos doc w - shift)
    in
    Grid.index t.grid ~i ~j
  in
  let moved = Hashtbl.create 16 in
  let consider w =
    let oc = shifted_cell w and nc = cell_idx t w in
    if not (Int.equal oc nc) then Hashtbl.replace moved w (oc, nc)
  in
  let from = ref (Document.start_pos doc root + shift) in
  for i = 1 to t.grid.Grid.size do
    let b = t.grid.Grid.boundaries.(i) in
    let lo = Int.max b !from and hi = b + shift in
    if lo < hi then begin
      iter_window doc ~lo ~hi consider;
      from := hi
    end
  done;
  let old_cell w =
    match Hashtbl.find_opt moved w with Some (oc, _) -> oc | None -> cell_idx t w
  in
  let res = resolver t in
  let on_nearest u ~covered:w ~covering:a =
    match t.preds.(u).acc with
    | Some acc when Hashtbl.mem moved w || Hashtbl.mem moved a ->
      cvg_add acc ~covered:(old_cell w) ~covering:(old_cell a) (-1.0);
      cvg_add acc ~covered:(cell_idx t w) ~covering:(cell_idx t a) 1.0
    | Some _ | None -> ()
  in
  (* [visit], carrying node indices, plus a mover's mass. *)
  let step w =
    let m = visit t res w ~cell:w ~on_nearest in
    Option.iter
      (fun (oc, nc) ->
        add_cell t t.pop oc (-1.0);
        add_cell t t.pop nc 1.0;
        for x = 0 to m - 1 do
          let ps = t.preds.(t.matched.(x)) in
          add_cell t ps.hist oc (-1.0);
          add_cell t ps.hist nc 1.0;
          ps.touched <- ps.touched + 1
        done)
      (Hashtbl.find_opt moved w);
    m
  in
  (* One pass in document order visits each mover after its ancestors
     and, when it matches, its subtree (the new one aside), where the
     nodes it covers lie.  So every entry with a mover at either end is
     visited once.  Every node up to [last] has been visited or passed
     over, and an ancestor of a later node was visited iff its index is
     at most [last]. *)
  let last = ref (-1) in
  List.iter
    (fun a ->
      if a > !last then begin
        open_ancestors ~above:!last t res a ~cell:Fun.id ~on_nearest;
        last := a;
        if step a > 0 then begin
          last := Document.subtree_last doc a;
          for w = a + 1 to !last do
            if w < root || w >= root + k then ignore (step w : int)
          done
        end
      end)
    (List.sort Int.compare (Hashtbl.fold (fun w _ acc -> w :: acc) moved []));
  feed_range t ~sign:1 root (root + k - 1)

(* --- in-place replacements ---------------------------------------------- *)

(* Positions are untouched; only the matched set of the edited node can
   flip, per predicate.  A flip moves one unit of histogram/level/count
   mass at the node's own cell, adds or removes the nesting pairs the node
   participates in (matching ancestors + matching descendants), and
   rewires the coverage entries of the descendants it covers when it
   matches.  One resolver pass over [v]'s ancestors, [v] in the union of
   its matched sets before and after, and [v]'s subtree finds both: the
   depth at [v] is its matching ancestors, and the nodes it covers are
   those whose nearest match is [v]. *)
let apply_replace t v edit =
  let doc = t.doc in
  if v < 0 || v >= Document.size doc then invalid_arg "Apply: replace node out of range";
  let p = Array.length t.preds in
  let before = Array.sub t.matched 0 (matches t v) in
  (match edit with
  | `Text text -> Document.replace_text doc v text
  | `Attrs attrs -> Document.replace_attrs doc v attrs);
  let after = Array.sub t.matched 0 (matches t v) in
  let flip =
    Array.init p (fun k -> Bool.to_int (Array.mem k after) - Bool.to_int (Array.mem k before))
  in
  let cv = cell_idx t v in
  Array.iteri
    (fun k ps ->
      if flip.(k) <> 0 then begin
        let d = float_of_int flip.(k) in
        add_cell t ps.hist cv d;
        ps.touched <- ps.touched + 1;
        Option.iter (fun acc -> level_add acc doc v d) ps.acc
      end)
    t.preds;
  if Array.exists2 (fun f ps -> f <> 0 && Option.is_some ps.acc) flip t.preds then begin
    let res = resolver t in
    open_ancestors t res v ~cell:Fun.id;
    let depth = Array.init p (Interval_ops.nesting_pairs res) and na = Array.make p (-1) in
    let lost = Seq.filter (fun k -> flip.(k) < 0) (Seq.init p Fun.id) in
    let union = Array.append after (Array.of_seq lost) in
    Array.blit union 0 t.matched 0 (Array.length union);
    ignore
      (visit ~m:(Array.length union) t res v ~cell:v ~on_nearest:(fun k ~covered:_ ~covering ->
           na.(k) <- covering)
        : int);
    Array.iteri (fun k above -> depth.(k) <- Interval_ops.nesting_pairs res k - above) depth;
    (* The nodes [v] covers switch between [v] and [v]'s own nearest
       match. *)
    let on_nearest k ~covered:w ~covering =
      if Int.equal covering v && flip.(k) <> 0 then
        Option.iter
          (fun acc ->
            let d = float_of_int flip.(k) and cw = cell_idx t w in
            if na.(k) >= 0 then cvg_add acc ~covered:cw ~covering:(cell_idx t na.(k)) (-.d);
            cvg_add acc ~covered:cw ~covering:cv d)
          t.preds.(k).acc
    in
    let desc = Array.make p 0 in
    for w = v + 1 to Document.subtree_last doc v do
      for x = 0 to visit t res w ~cell:w ~on_nearest - 1 do
        desc.(t.matched.(x)) <- desc.(t.matched.(x)) + 1
      done
    done;
    add_pairs t (fun k -> flip.(k) * (depth.(k) + desc.(k)))
  end

(* Counted only once the edit went through: a rejected update leaves the
   engine as it was. *)
let apply_update t u =
  (match u with
  | Update.Delete { node } -> apply_delete t node
  | Update.Insert { parent; index; subtree } -> apply_insert t ~parent ~index subtree
  | Update.Replace_text { node; text } -> apply_replace t node (`Text text)
  | Update.Replace_attrs { node; attrs } -> apply_replace t node (`Attrs attrs));
  t.updates <- t.updates + 1

(* --- staleness ---------------------------------------------------------- *)

let staleness t =
  Staleness.make_report ~updates_since_build:t.updates
    ~per_predicate:
      (Array.to_list (Array.map (fun ps -> (ps.name, ps.touched)) (Array.sub t.preds 0 t.base)))
