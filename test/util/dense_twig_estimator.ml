(* The dense twig estimator, kept as the differential oracle for
   [Twig_estimator]: every view is a participation histogram plus a dense
   g × g join-factor array, and every join sweeps the whole grid.  The
   library's sparse views must reproduce its estimates and [explain]
   steps bit for bit ([Int64.bits_of_float]); the per-cell pH-join loop
   it used ([estimate_cells_with]) and the grid-wide coverage join
   ([estimate_cells_by_ancestor]) are kept here with it. *)

open Xmlest_core
open Xmlest
open Twig_estimator

(* Per-cell pH-join estimate over the outer histogram's non-zero cells:
   with [Ancestor_based] the coefficients are [descendant_coefficients
   desc]; with [Descendant_based], [ancestor_coefficients anc]. *)
let estimate_cells_with ?(direction = Ph_join.Ancestor_based) ~coefs ~anc ~desc () =
  let grid = Position_histogram.grid anc in
  let g = grid.Grid.size in
  let out = Position_histogram.create_empty grid in
  let outer = match direction with
    | Ph_join.Ancestor_based -> anc
    | Ph_join.Descendant_based -> desc
  in
  Position_histogram.iter_nonzero outer (fun ~i ~j count ->
      let est = count *. coefs.((i * g) + j) in
      if not (Float.equal est 0.0) then Position_histogram.add out ~i ~j est);
  out

let estimate_cells ~anc ~desc () =
  estimate_cells_with ~coefs:(Ph_join.descendant_coefficients desc) ~anc ~desc ()

(* Fig. 10's ancestor-based pattern-count estimate over the whole grid:
   per ancestor cell (i, j), the weighted descendants it covers,
   [anc_scale i j × Σ over covered cells (m, n) of Cvg((m,n) by (i,j)) ×
   desc_weight(m, n)].  [anc_scale] carries the JnFct of the ancestor
   view times its participation ratio (coverage-update case 1). *)
let estimate_cells_by_ancestor ~coverage ~desc_weight ~anc_scale =
  let grid = Position_histogram.grid desc_weight in
  let out = Position_histogram.create_empty grid in
  (* Accumulate covered weight into each covering (ancestor) cell, then
     apply the ancestor-side scale. *)
  Position_histogram.iter_nonzero desc_weight (fun ~i ~j w ->
      Test_util.iter_covers coverage ~i ~j (fun ~m ~n frac ->
          if frac > 0.0 then Position_histogram.add out ~i:m ~j:n (w *. frac)));
  let scaled = Position_histogram.create_empty grid in
  Position_histogram.iter_nonzero out (fun ~i ~j v ->
      let s = anc_scale ~i ~j in
      if not (Float.equal s 0.0) then
        Position_histogram.add scaled ~i ~j (v *. s));
  scaled

(* What the coverage joins since the counters were last zeroed reached:
   (descendant cell, covering cell) pairs of positive coverage whose
   covering cell lies outside the ancestor view (zero participation), and
   joins whose child view was composed rather than a catalog leaf.  The
   differential tests check that their cases reach both. *)
let outside_pairs = ref 0
let composed_children = ref 0

(* A view of a partially-assembled sub-twig, keyed at its root node. *)
type view = {
  part : Position_histogram.t;  (* participating-node estimate per cell *)
  jn : float array;  (* join factor per cell (dense row-major) *)
  raw : Position_histogram.t;  (* untouched predicate histogram, for
                                  coverage participation scaling *)
  source : Predicate.t option;
      (* Some p iff part × jn is value-identical to the catalog histogram
         of p (true for leaf views, lost after any join or scaling) — the
         licence to reuse p's memoized pH-join coefficients *)
}

let idx g i j = (i * g) + j

(* part × jn, the per-cell expected match count. *)
let weighted v =
  let grid = Position_histogram.grid v.part in
  let g = grid.Grid.size in
  let out = Position_histogram.create_empty grid in
  Position_histogram.iter_nonzero v.part (fun ~i ~j count ->
      let w = count *. v.jn.(idx g i j) in
      if not (Float.equal w 0.0) then Position_histogram.add out ~i ~j w);
  out

let leaf_view ?source hist =
  let grid = Position_histogram.grid hist in
  {
    part = Position_histogram.copy hist;
    jn = Array.make (Grid.cells grid) 1.0;
    raw = hist;
    source;
  }

(* Σ_{i <= m <= n <= j} h[m][n]: the descendant band of each cell,
   Fig. 10's M[i][j].  O(g²) by the recurrence T[i][j] = T[i+1][j] +
   (row-i prefix from i to j). *)
let band_sums h =
  let grid = Position_histogram.grid h in
  let g = grid.Grid.size in
  let t = Array.make (g * g) 0.0 in
  for i = g - 1 downto 0 do
    let row_prefix = ref 0.0 in
    for j = i to g - 1 do
      row_prefix := !row_prefix +. Position_histogram.get h ~i ~j;
      t.(idx g i j) <- !row_prefix +. (if i < g - 1 && j > i then t.(idx g (i + 1) j) else 0.0)
    done
  done;
  t

(* Primitive (overlap) composition: pH-join of the weighted histograms,
   participation := estimate (Fig. 10 case 1), join factor 1.

   The view stays keyed at the ancestor predicate, so per-cell attribution
   is always ancestor-based; when the descendant-based estimator is
   requested, its (generally different) total is preserved by scaling the
   ancestor-keyed cells uniformly.

   When a side of the join is still an untouched catalog histogram (its
   [source] is known) and the catalog can serve that predicate's memoized
   coefficient array, the O(g²) coefficient pass is skipped — bit-identical
   results, per estimate_cells_with. *)
let join_overlap options catalog ~desc_source anc_view desc_weight =
  let anc = weighted anc_view in
  let cached_desc_coefs =
    Option.bind desc_source (fun p -> catalog.desc_coefs p)
  in
  let est_cells =
    match cached_desc_coefs with
    | Some coefs ->
      estimate_cells_with ~coefs ~anc ~desc:desc_weight ()
    | None -> estimate_cells ~anc ~desc:desc_weight ()
  in
  let est_cells =
    match options.direction with
    | Ph_join.Ancestor_based -> est_cells
    | Ph_join.Descendant_based ->
      let anc_total = Position_histogram.total est_cells in
      let desc_total =
        match Option.bind anc_view.source (fun p -> catalog.anc_coefs p) with
        | Some coefs ->
          Position_histogram.total
            (estimate_cells_with ~direction:Ph_join.Descendant_based ~coefs ~anc
               ~desc:desc_weight ())
        | None ->
          Position_histogram.total
            (estimate_cells_with ~direction:Ph_join.Descendant_based
               ~coefs:(Ph_join.ancestor_coefficients anc) ~anc ~desc:desc_weight ())
      in
      if anc_total > 0.0 then
        Position_histogram.scale est_cells (desc_total /. anc_total)
      else est_cells
  in
  let grid = Position_histogram.grid est_cells in
  {
    part = est_cells;
    jn = Array.make (Grid.cells grid) 1.0;
    raw = anc_view.raw;
    source = None;
  }

(* No-overlap composition (ancestor predicate cannot nest): coverage-based
   estimate, balls-in-bins participation (case 2), join factor update. *)
let join_no_overlap anc_view coverage desc_weight desc_part =
  let grid = Position_histogram.grid desc_weight in
  let g = grid.Grid.size in
  let anc_scale ~i ~j =
    let raw = Position_histogram.get anc_view.raw ~i ~j in
    if raw <= 0.0 then 0.0
    else begin
      let ratio = Position_histogram.get anc_view.part ~i ~j /. raw in
      anc_view.jn.(idx g i j) *. ratio
    end
  in
  Position_histogram.iter_nonzero desc_weight (fun ~i ~j _ ->
      Test_util.iter_covers coverage ~i ~j (fun ~m ~n frac ->
          if frac > 0.0 && Float.equal (Position_histogram.get anc_view.part ~i:m ~j:n) 0.0
          then incr outside_pairs));
  let est_cells =
    estimate_cells_by_ancestor ~coverage ~desc_weight ~anc_scale
  in
  let m = band_sums desc_part in
  let new_part = Position_histogram.create_empty grid in
  let new_jn = Array.make (Grid.cells grid) 0.0 in
  Position_histogram.iter_nonzero anc_view.part (fun ~i ~j n ->
      let p = No_overlap.participation_saturation ~n ~m:(m.(idx g i j)) in
      if p > 0.0 then begin
        Position_histogram.add new_part ~i ~j p;
        new_jn.(idx g i j) <- Position_histogram.get est_cells ~i ~j /. p
      end);
  { part = new_part; jn = new_jn; raw = anc_view.raw; source = None }

(* Parent-child edge with per-cell level correction (extension): a
   Child_join over the weighted histograms; participation follows the
   overlap rule (case 1). *)
let join_child_cell_level acc desc_weight ~anc_lph ~desc_lph =
  let est_cells =
    Child_join.estimate_cells ~anc:(weighted acc) ~desc:desc_weight
      ~anc_levels:anc_lph ~desc_levels:desc_lph ()
  in
  let grid = Position_histogram.grid est_cells in
  {
    part = est_cells;
    jn = Array.make (Grid.cells grid) 1.0;
    raw = acc.raw;
    source = None;
  }

let rec view ?(options = default_options) ?trace catalog (p : Pattern.t) =
  let self = leaf_view ~source:p.Pattern.pred (catalog.hist p.Pattern.pred) in
  let coverage =
    if options.use_no_overlap then catalog.coverage p.Pattern.pred else None
  in
  let assembled = ref (Pattern.node p.Pattern.pred) in
  List.fold_left
    (fun acc (axis, child) ->
      let child_view = view ~options ?trace catalog child in
      let global_factor () =
        match (catalog.level p.Pattern.pred, catalog.level child.Pattern.pred) with
        | Some la, Some ld -> Level_histogram.child_fraction ~anc:la ~desc:ld
        | _ -> 1.0
      in
      (* Per-cell child correction applies only on the overlap (pH-join)
         path and when both level-position histograms exist. *)
      let cell_level_available () =
        coverage = None
        && catalog.position_levels p.Pattern.pred <> None
        && catalog.position_levels child.Pattern.pred <> None
      in
      let factor =
        match (axis, options.child_mode) with
        | Pattern.Descendant, _ -> 1.0
        | Pattern.Child, As_descendant -> 1.0
        | Pattern.Child, Level_scaled -> global_factor ()
        | Pattern.Child, Cell_level_scaled ->
          if cell_level_available () then 1.0 else global_factor ()
      in
      let desc_weight = Position_histogram.scale (weighted child_view) factor in
      (* Scaling by anything but 1 changes the cell values, so the child's
         memoized coefficients no longer describe desc_weight. *)
      let desc_source =
        if Float.equal factor 1.0 then child_view.source else None
      in
      let joined, method_used =
        match coverage with
        | Some cvg ->
          let desc_part = Position_histogram.scale child_view.part factor in
          if Option.is_none child_view.source then incr composed_children;
          (join_no_overlap acc cvg desc_weight desc_part, "coverage")
        | None -> (
          match (axis, options.child_mode) with
          | Pattern.Child, Cell_level_scaled when cell_level_available () -> (
            match
              ( catalog.position_levels p.Pattern.pred,
                catalog.position_levels child.Pattern.pred )
            with
            | Some anc_lph, Some desc_lph ->
              (join_child_cell_level acc desc_weight ~anc_lph ~desc_lph,
               "child-cell-level")
            | _ ->
              (join_overlap options catalog ~desc_source acc desc_weight,
               "pH-join"))
          | _ ->
            (join_overlap options catalog ~desc_source acc desc_weight,
             "pH-join"))
      in
      (match trace with
      | None -> ()
      | Some log ->
        assembled :=
          {
            !assembled with
            Pattern.edges = !assembled.Pattern.edges @ [ (axis, child) ];
          };
        let total = ref 0.0 in
        let grid = Position_histogram.grid joined.part in
        let g = grid.Grid.size in
        Position_histogram.iter_nonzero joined.part (fun ~i ~j count ->
            total := !total +. (count *. joined.jn.(idx g i j)));
        log :=
          {
            subtwig = Pattern.to_string !assembled;
            method_used;
            estimate = !total;
          }
          :: !log);
      joined)
    self p.Pattern.edges

let total_matches v =
  let grid = Position_histogram.grid v.part in
  let g = grid.Grid.size in
  let acc = ref 0.0 in
  Position_histogram.iter_nonzero v.part (fun ~i ~j count ->
      acc := !acc +. (count *. v.jn.(idx g i j)));
  !acc

let estimate ?options catalog pattern = total_matches (view ?options catalog pattern)

let estimate_trace ?options catalog pattern =
  let log = ref [] in
  let v = view ?options ~trace:log catalog pattern in
  (total_matches v, List.rev !log)

let estimate_pair ?options catalog ~anc ~desc =
  estimate ?options catalog (Pattern.twig anc [ desc ])
