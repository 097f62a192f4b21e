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
  mutable compiled : Predicate.compiled;
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
  mutable updates : int;
}

let document t = t.doc

(* --- small helpers ----------------------------------------------------- *)

let cell_ij t doc v =
  Grid.cell_of_node t.grid
    ~start_pos:(Document.start_pos doc v)
    ~end_pos:(Document.end_pos doc v)

let cell_idx t doc v =
  let i, j = cell_ij t doc v in
  Grid.index t.grid ~i ~j

let hist_add ps ~i ~j d = Position_histogram.add ps.hist ~i ~j d

let cvg_add acc ~covered ~covering d =
  Coverage_histogram.add acc.coverage ~covered ~covering d

let level_add acc doc v d =
  Option.iter (fun lb -> Level_histogram.add lb (Document.level doc v) d) acc.levels

(* Nearest strict ancestor of [v] matching [ps], by parent-chain walk
   ([-1] when none). *)
let nearest_anc ps doc v =
  let rec go u = if u < 0 then -1 else if ps.compiled u then u else go (Document.parent doc u) in
  go (Document.parent doc v)

(* Number of matching strict ancestors of [v] — the nesting pairs [v]
   participates in as the descendant endpoint. *)
let anc_matches ps doc v =
  let rec go u acc =
    if u < 0 then acc else go (Document.parent doc u) (if ps.compiled u then acc + 1 else acc)
  in
  go (Document.parent doc v) 0

(* A compiled predicate reads the document's current columns, but
   resolves its tags to ids once: only a newly interned tag needs a
   recompile. *)
let recompile t =
  Array.iter (fun ps -> ps.compiled <- Predicate.compile t.doc ps.pred) t.preds

(* --- adoption ----------------------------------------------------------- *)

let new_state doc pred hist acc =
  { pred; name = Predicate.name pred; hist; acc; compiled = Predicate.compile doc pred; touched = 0 }

(* The engine edits its own copy of [doc], so the caller's document never
   changes under it.  Every statistic is adopted as it stands: nothing is
   derived from the document here. *)
let init ~grid ~pop ~entries doc =
  let doc = Document.copy doc in
  let preds =
    Array.of_list (List.map (fun (pred, hist, acc) -> new_state doc pred hist (Some acc)) entries)
  in
  { doc; grid; preds; base = Array.length preds; pop; updates = 0 }

let track t pred hist = t.preds <- Array.append t.preds [| new_state t.doc pred hist None |]

(* --- subtree sweeps ------------------------------------------------------ *)

(* Call [f u] for every node [u] strictly inside [a]'s subtree with no
   matching node strictly between [a] and [u]: the nodes whose nearest
   matching strict ancestor is [a] when [a] matches.  Matching
   descendants are visited but their subtrees skipped, so the scan costs
   the nodes it visits, with no walk up from each. *)
let iter_covered ps doc a f =
  let last = Document.subtree_last doc a in
  let w = ref (a + 1) in
  while !w <= last do
    let u = !w in
    f u;
    w := if ps.compiled u then Document.subtree_last doc u + 1 else u + 1
  done

(* Call [f w ~matched ~na ~anc] for every node [w] of the subtree whose
   pre-order range is [lo .. hi] ([lo] its root), in document order, with
   whether [w] matches [ps], its nearest matching strict ancestor ([-1]
   when none) and its number of matching strict ancestors.  Both derive
   from the parent's values, so after one chain walk for [lo] the range
   costs O(hi - lo + 1) however deep it sits: a walk per node would be
   quadratic on a deep chain. *)
let sweep_subtree ps doc lo hi f =
  let k = hi - lo + 1 in
  let hit = Array.make k false and na = Array.make k (-1) and anc = Array.make k 0 in
  for w = lo to hi do
    let x = w - lo in
    if x = 0 then begin
      na.(0) <- nearest_anc ps doc lo;
      anc.(0) <- anc_matches ps doc lo
    end
    else begin
      let y = Document.parent doc w - lo in
      na.(x) <- (if hit.(y) then y + lo else na.(y));
      anc.(x) <- (if hit.(y) then anc.(y) + 1 else anc.(y))
    end;
    hit.(x) <- ps.compiled w;
    f w ~matched:hit.(x) ~na:na.(x) ~anc:anc.(x)
  done

(* Add ([sign = 1]) or subtract ([sign = -1]) the subtree range
   [lo .. hi] of [doc] to or from every maintained statistic: population
   and histogram mass, levels, the nesting pairs each node closes as the
   descendant endpoint, and each node's own (covered-side) coverage
   entry; a tracked predicate's histogram mass only.  Everything is read
   off the working copy, so the range must be the doomed subtree before
   the delete or the inserted one after the insert; a same-grid rebuild
   buckets the nodes identically, via the clamped [Grid.cell_of_node]. *)
let feed_range t ~sign lo hi =
  let doc = t.doc in
  let g = t.grid.Grid.size in
  let d = float_of_int sign in
  let cells = Array.init (hi - lo + 1) (fun x -> cell_idx t doc (lo + x)) in
  Array.iter (fun c -> Position_histogram.add t.pop ~i:(c / g) ~j:(c mod g) d) cells;
  let add_match ps w =
    let c = cells.(w - lo) in
    hist_add ps ~i:(c / g) ~j:(c mod g) d;
    ps.touched <- ps.touched + 1
  in
  Array.iter
    (fun ps ->
      match ps.acc with
      | None ->
        for w = lo to hi do
          if ps.compiled w then add_match ps w
        done
      | Some acc ->
        sweep_subtree ps doc lo hi (fun w ~matched ~na ~anc ->
            if na >= 0 then
              cvg_add acc ~covered:cells.(w - lo) ~covering:(cell_idx t doc na) d;
            if matched then begin
              add_match ps w;
              level_add acc doc w d;
              acc.pairs <- acc.pairs + (sign * anc)
            end))
    t.preds

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
   population and histogram mass and its own coverage entry, which also
   follows its covering ancestor's new cell; when it matches, the entries
   of the nodes it is the nearest matching ancestor of follow its cell
   too. *)
let apply_insert t ~parent ~index subtree =
  let doc = t.doc in
  if parent < 0 || parent >= Document.size doc then
    invalid_arg "Apply: insert parent out of range";
  let tags = Document.num_tags doc in
  let root = Document.insert_subtree doc ~parent ~index subtree in
  if Document.num_tags doc > tags then recompile t;
  let k = Document.subtree_size doc root in
  let shift = 2 * k in
  let g = t.grid.Grid.size in
  let new_cell w = cell_idx t doc w in
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
    let oc = shifted_cell w and nc = new_cell w in
    if not (Int.equal oc nc) then Hashtbl.replace moved w (oc, nc)
  in
  let from = ref (Document.start_pos doc root + shift) in
  for i = 1 to g do
    let b = t.grid.Grid.boundaries.(i) in
    let lo = Int.max b !from and hi = b + shift in
    if lo < hi then begin
      iter_window doc ~lo ~hi consider;
      from := hi
    end
  done;
  let old_cell w =
    match Hashtbl.find_opt moved w with Some (oc, _) -> oc | None -> new_cell w
  in
  Hashtbl.iter
    (fun a (oc, nc) ->
      Position_histogram.add t.pop ~i:(oc / g) ~j:(oc mod g) (-1.0);
      Position_histogram.add t.pop ~i:(nc / g) ~j:(nc mod g) 1.0;
      Array.iter
        (fun ps ->
          let hit = ps.compiled a in
          if hit then begin
            hist_add ps ~i:(oc / g) ~j:(oc mod g) (-1.0);
            hist_add ps ~i:(nc / g) ~j:(nc mod g) 1.0;
            ps.touched <- ps.touched + 1
          end;
          Option.iter
            (fun acc ->
              let na = nearest_anc ps doc a in
              if na >= 0 then begin
                cvg_add acc ~covered:oc ~covering:(old_cell na) (-1.0);
                cvg_add acc ~covered:nc ~covering:(new_cell na) 1.0
              end;
              (* Movers among the nodes [a] covers re-keyed both sides of
                 their entry above; the new subtree is fed afterwards. *)
              if hit then
                iter_covered ps doc a (fun u ->
                    if (u < root || u >= root + k) && not (Hashtbl.mem moved u)
                    then begin
                      let cu = new_cell u in
                      cvg_add acc ~covered:cu ~covering:oc (-1.0);
                      cvg_add acc ~covered:cu ~covering:nc 1.0
                    end))
            ps.acc)
        t.preds)
    moved;
  feed_range t ~sign:1 root (root + k - 1)

(* --- in-place replacements ---------------------------------------------- *)

(* Positions are untouched; only the matched set of the edited node can
   flip, per predicate.  A flip moves one unit of histogram/level/count
   mass at the node's own cell, adds or removes the nesting pairs the node
   participates in (matching ancestors + matching descendants), and
   rewires the coverage entries of exactly those descendants whose
   nearest-matching-ancestor walk reaches [v] before any other match. *)
let apply_replace t v edit =
  let doc = t.doc in
  let n = Document.size doc in
  if v < 0 || v >= n then invalid_arg "Apply: replace node out of range";
  let before = Array.map (fun ps -> ps.compiled v) t.preds in
  (match edit with
  | `Text text -> Document.replace_text doc v text
  | `Attrs attrs -> Document.replace_attrs doc v attrs);
  let i, j = cell_ij t doc v in
  let cv = Grid.index t.grid ~i ~j in
  Array.iteri
    (fun u ps ->
      let after = ps.compiled v in
      if not (Bool.equal before.(u) after) then begin
        let sign = if after then 1 else -1 in
        let d = float_of_int sign in
        hist_add ps ~i ~j d;
        ps.touched <- ps.touched + 1;
        Option.iter
          (fun acc ->
            level_add acc doc v d;
            (* Nesting pairs with [v] as descendant, then as ancestor. *)
            let desc = ref 0 in
            for w = v + 1 to Document.subtree_last doc v do
              if ps.compiled w then incr desc
            done;
            acc.pairs <- acc.pairs + (sign * (anc_matches ps doc v + !desc));
            (* Coverage: the nodes [v] covers when it matches switch
               between [v] and [v]'s own nearest match. *)
            let na_v = nearest_anc ps doc v in
            let na_v_cell = if na_v >= 0 then cell_idx t doc na_v else -1 in
            iter_covered ps doc v (fun w ->
                let cw = cell_idx t doc w in
                if na_v_cell >= 0 then cvg_add acc ~covered:cw ~covering:na_v_cell (-.d);
                cvg_add acc ~covered:cw ~covering:cv d))
          ps.acc
      end)
    t.preds

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
