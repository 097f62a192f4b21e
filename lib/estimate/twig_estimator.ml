open Xmlest_histogram
open Xmlest_query

type catalog = {
  hist : Predicate.t -> Position_histogram.t;
  coverage : Predicate.t -> Coverage_histogram.t option;
  level : Predicate.t -> Level_histogram.t option;
  position_levels : Predicate.t -> Level_position_histogram.t option;
  desc_coefs : Predicate.t -> float array option;
  anc_coefs : Predicate.t -> float array option;
}

type child_mode = As_descendant | Level_scaled | Cell_level_scaled

type options = {
  direction : Ph_join.direction;
  use_no_overlap : bool;
  child_mode : child_mode;
}

let default_options =
  {
    direction = Ph_join.Ancestor_based;
    use_no_overlap = true;
    child_mode = As_descendant;
  }

(* A view of a partially-assembled sub-twig, keyed at its root node.  It
   holds only the cells where participation is non-zero, in
   [Position_histogram.nonzero] order (upper triangle, row-major).  Every
   sum below adds the same non-zero terms in the same order as a sweep
   over dense histograms would, so estimates are bit-identical to the
   dense composition (test/util/dense_twig_estimator.ml). *)
type view = {
  pred : Predicate.t;  (* the root node's predicate *)
  at : int array;  (* row-major index of each held cell *)
  part : float array;  (* participating-node estimate per held cell *)
  jn : float array;  (* join factor (matches per participating node) *)
  weighted : int array * float array;
      (* part × jn with zero products dropped: the per-cell expected
         match count, which every join of the view reads *)
  raw : Position_histogram.t;  (* untouched predicate histogram, for
                                  coverage participation scaling *)
  source : Predicate.t option;
      (* Some p iff part × jn is value-identical to the catalog histogram
         of p (true for leaf views, lost after any join or scaling) — the
         licence to reuse p's memoized pH-join coefficients *)
  mutable desc_pass : float array option;
      (* the descendant coefficient pass over part × jn, kept once run
         for a view without a catalog source, so a view joined below
         several parents (by the optimizer's node-set program) runs it
         once *)
}

(* The cells [at.(k)] whose value [f k] is non-zero, with those values:
   what [iter_nonzero] would visit in a dense histogram of them. *)
let nonzero_of at f =
  let n = Array.length at in
  let keep_at = Array.make n 0 and keep = Array.make n 0.0 in
  let m = ref 0 in
  for k = 0 to n - 1 do
    let v = f k in
    if not (Float.equal v 0.0) then begin
      keep_at.(!m) <- at.(k);
      keep.(!m) <- v;
      incr m
    end
  done;
  if Int.equal !m n then (keep_at, keep)
  else (Array.sub keep_at 0 !m, Array.sub keep 0 !m)

let scale ((at, w) as cells) factor =
  if Float.equal factor 1.0 then cells
  else nonzero_of at (fun k -> w.(k) *. factor)

let sum (_, w) = Array.fold_left ( +. ) 0.0 w

(* Sparse cells as a dense histogram, for the passes that need one. *)
let dense grid (at, w) =
  let h = Position_histogram.create_empty grid in
  let g = grid.Grid.size in
  Array.iteri (fun k c -> Position_histogram.add h ~i:(c / g) ~j:(c mod g) w.(k)) at;
  h

(* Case 1 of Fig. 10: participation := estimate, join factor 1.  The
   cells [(at, est)] hold no zero, so they are their own weighted cells
   (x × 1.0 = x). *)
let joined pred raw ((at, est) as cells) =
  {
    pred;
    at;
    part = est;
    jn = Array.make (Array.length at) 1.0;
    weighted = cells;
    raw;
    source = None;
    desc_pass = None;
  }

let leaf catalog pred =
  let hist = catalog.hist pred in
  { (joined pred hist (Position_histogram.nonzero hist)) with source = Some pred }

(* A view's descendant coefficients over [cells], its weighted cells:
   the catalog's memoized array while the view is an untouched catalog
   histogram (asked for on every join, so the catalog counts each use),
   otherwise one pass over the cells, kept on the view. *)
let desc_coefs_of catalog grid v cells =
  match (Option.bind v.source catalog.desc_coefs, v.desc_pass) with
  | Some coefs, _ | None, Some coefs -> coefs
  | None, None ->
    let coefs = Ph_join.descendant_coefficients_of_cells grid cells in
    v.desc_pass <- Some coefs;
    coefs

(* Fig. 10's M[i][j] = Σ_{i <= m <= n <= j} h[m][n], the descendant band
   of cell (i, j), at each of the cells [anc_at] (ascending), over the
   sparse cells [(at, h)] ([nonzero] order).  It runs the dense
   recurrence T[i][j] = P(i, j) + T[i+1][j], P(i, j) being row i's prefix
   up to column j and T[j][j] = P(j, j) + 0.0, a row at a time from the
   last, with [t.(j)] holding T of the current row: a row without cells
   has P = 0 and leaves [t] as it is, and so do the columns left of a
   row's first cell.  Adding 0.0 changes no sum here (none is -0.0), so
   the bits are the dense recurrence's, in O(g) space and O(g) time per
   row that holds cells. *)
let band_sums grid (at, h) anc_at =
  let g = grid.Grid.size in
  let t = Array.make g 0.0 in
  let out = Array.make (Array.length anc_at) 0.0 in
  let k = ref (Array.length at - 1) and a = ref (Array.length anc_at - 1) in
  for r = g - 1 downto 0 do
    let last = !k in
    while !k >= 0 && Int.equal (at.(!k) / g) r do
      decr k
    done;
    if !k < last then begin
      let p = ref 0.0 and next = ref (!k + 1) in
      for j = at.(!next) mod g to g - 1 do
        if !next <= last && Int.equal (at.(!next) mod g) j then begin
          p := !p +. h.(!next);
          incr next
        end;
        t.(j) <- !p +. t.(j)
      done
    end;
    while !a >= 0 && Int.equal (anc_at.(!a) / g) r do
      out.(!a) <- t.(anc_at.(!a) mod g);
      decr a
    done
  done;
  out

(* Primitive (overlap) composition: pH-join of the weighted cells,
   participation := estimate (Fig. 10 case 1), join factor 1.

   The view stays keyed at the ancestor predicate, so per-cell attribution
   is always ancestor-based; when the descendant-based estimator is
   requested, its (generally different) total is preserved by scaling the
   ancestor-keyed cells uniformly.

   [desc_weight] is the child's weighted cells times [factor].  Unscaled,
   they are the child view's own, and so are its coefficients
   ([desc_coefs_of]); scaled, a fresh O(g²) pass runs over them.  Both
   feed [Ph_join.weigh], so the results are bit-identical. *)
let join_overlap options catalog anc_view child ~factor desc_weight =
  let grid = Position_histogram.grid anc_view.raw in
  let anc = anc_view.weighted in
  let desc_coefs =
    if Float.equal factor 1.0 then desc_coefs_of catalog grid child desc_weight
    else Ph_join.descendant_coefficients_of_cells grid desc_weight
  in
  let est = Ph_join.weigh ~coefs:desc_coefs anc in
  let est =
    match options.direction with
    | Ph_join.Ancestor_based -> est
    | Ph_join.Descendant_based ->
      let anc_total = sum est in
      let anc_coefs =
        match Option.bind anc_view.source catalog.anc_coefs with
        | Some coefs -> coefs
        | None -> Ph_join.ancestor_coefficients_of_cells grid anc
      in
      let desc_total = sum (Ph_join.weigh ~coefs:anc_coefs desc_weight) in
      if anc_total > 0.0 then scale est (desc_total /. anc_total) else est
  in
  joined anc_view.pred anc_view.raw est

(* No-overlap composition (ancestor predicate cannot nest): coverage-based
   estimate, balls-in-bins participation (case 2), join factor update.

   Only the ancestor view's cells can take part: elsewhere participation,
   hence the ancestor scale, is zero.  So the child's weighted cells are
   walked with their coverage rows and the covered weight is summed at
   the view's cells alone ([No_overlap.cover_weights]), and the band sums
   are taken there too; each covered sum is then scaled by the cell's
   join factor times its participation ratio.  A dense composition
   scales a sum only when both factors are non-zero, adding the product
   to an empty cell (0.0 + x), and so does this. *)
let join_no_overlap anc_view coverage desc_weight desc_part =
  let grid = Position_histogram.grid anc_view.raw in
  let g = grid.Grid.size in
  let covered = No_overlap.cover_weights ~grid ~coverage desc_weight anc_view.at in
  let m = band_sums grid desc_part anc_view.at in
  let n = Array.length anc_view.at in
  let at = Array.make n 0 and part = Array.make n 0.0 and jn = Array.make n 0.0 in
  let kept = ref 0 in
  for k = 0 to n - 1 do
    let c = anc_view.at.(k) in
    let p = No_overlap.participation_saturation ~n:anc_view.part.(k) ~m:m.(k) in
    if p > 0.0 then begin
      let raw = Position_histogram.get anc_view.raw ~i:(c / g) ~j:(c mod g) in
      let s = if raw <= 0.0 then 0.0 else anc_view.jn.(k) *. (anc_view.part.(k) /. raw) in
      let v = covered.(k) in
      let est = if Float.equal v 0.0 || Float.equal s 0.0 then 0.0 else 0.0 +. (v *. s) in
      at.(!kept) <- c;
      part.(!kept) <- p;
      jn.(!kept) <- est /. p;
      incr kept
    end
  done;
  let at = Array.sub at 0 !kept and part = Array.sub part 0 !kept in
  let jn = Array.sub jn 0 !kept in
  {
    pred = anc_view.pred;
    at;
    part;
    jn;
    weighted = nonzero_of at (fun k -> part.(k) *. jn.(k));
    raw = anc_view.raw;
    source = None;
    desc_pass = None;
  }

(* Parent-child edge with per-cell level correction (extension): a
   Child_join over dense copies of the weighted cells; participation
   follows the overlap rule (case 1). *)
let join_child_cell_level acc desc_weight ~anc_lph ~desc_lph =
  let grid = Position_histogram.grid acc.raw in
  Child_join.estimate_cells ~anc:(dense grid acc.weighted)
    ~desc:(dense grid desc_weight) ~anc_levels:anc_lph ~desc_levels:desc_lph ()
  |> Position_histogram.nonzero |> joined acc.pred acc.raw

(* Σ part × jn over the held cells: the sub-twig's match count. *)
let total v =
  let acc = ref 0.0 in
  Array.iteri (fun k count -> acc := !acc +. (count *. v.jn.(k))) v.part;
  !acc

(* One edge of the composition: [child], the view of the edge's lower
   end, joined into [acc], the view of the sub-twig assembled so far at
   the edge's upper end, by coverage when [acc]'s predicate cannot nest,
   per cell pair when [Cell_level_scaled] can, by pH-join otherwise. *)
let join_step options catalog acc axis child =
  let coverage = if options.use_no_overlap then catalog.coverage acc.pred else None in
  let global_factor () =
    match (catalog.level acc.pred, catalog.level child.pred) with
    | Some la, Some ld -> Level_histogram.child_fraction ~anc:la ~desc:ld
    | _ -> 1.0
  in
  (* Per-cell child correction applies only on the overlap (pH-join)
     path and when both level-position histograms exist. *)
  let cell_level_available () =
    coverage = None
    && catalog.position_levels acc.pred <> None
    && catalog.position_levels child.pred <> None
  in
  let factor =
    match (axis, options.child_mode) with
    | Pattern.Descendant, _ -> 1.0
    | Pattern.Child, As_descendant -> 1.0
    | Pattern.Child, Level_scaled -> global_factor ()
    | Pattern.Child, Cell_level_scaled ->
      if cell_level_available () then 1.0 else global_factor ()
  in
  let desc_weight = scale child.weighted factor in
  let overlap () =
    (join_overlap options catalog acc child ~factor desc_weight, "pH-join")
  in
  match coverage with
  | Some cvg ->
    let desc_part = scale (child.at, child.part) factor in
    (join_no_overlap acc cvg desc_weight desc_part, "coverage")
  | None -> (
    match (axis, options.child_mode) with
    | Pattern.Child, Cell_level_scaled when cell_level_available () -> (
      match
        (catalog.position_levels acc.pred, catalog.position_levels child.pred)
      with
      | Some anc_lph, Some desc_lph ->
        (join_child_cell_level acc desc_weight ~anc_lph ~desc_lph, "child-cell-level")
      | _ -> overlap ())
    | _ -> overlap ())

let join ?(options = default_options) catalog acc axis child =
  fst (join_step options catalog acc axis child)

type step = { subtwig : string; method_used : string; estimate : float }

(* The pattern's view: each node's leaf view with its edges' child views
   joined in, left to right. *)
let rec view ?trace options catalog (p : Pattern.t) =
  let assembled = ref (Pattern.node p.Pattern.pred) in
  List.fold_left
    (fun acc (axis, child) ->
      let joined, method_used =
        join_step options catalog acc axis (view ?trace options catalog child)
      in
      (match trace with
      | None -> ()
      | Some log ->
        assembled :=
          {
            !assembled with
            Pattern.edges = !assembled.Pattern.edges @ [ (axis, child) ];
          };
        log :=
          {
            subtwig = Pattern.to_string !assembled;
            method_used;
            estimate = total joined;
          }
          :: !log);
      joined)
    (leaf catalog p.Pattern.pred)
    p.Pattern.edges

let estimate ?(options = default_options) catalog pattern =
  total (view options catalog pattern)

let estimate_trace ?(options = default_options) catalog pattern =
  let log = ref [] in
  let v = view ~trace:log options catalog pattern in
  (total v, List.rev !log)
