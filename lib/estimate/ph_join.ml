open Xmlest_histogram
type direction = Ancestor_based | Descendant_based

(* Dense row-major helpers; [i] is the start bucket, [j] the end bucket. *)
let idx g i j = (i * g) + j

(* Both coefficient passes below read the histogram's cells from a plain
   dense row-major float array [b] and write the coefficients into [coef]
   (the lower triangle is left alone).  Each cell is read before its own
   coefficient is written and never read again, so [coef] may be [b]: a
   pass over sparse cells scatters them into one fresh array and runs in
   place. *)

(* Fig. 9's partial sums over the inner (descendant) histogram.

   self[i][j]       = B[i][j]
   down[i][j]       = Σ_{l = i..j-1} B[i][l]          (column below, same i)
   right[i][j]      = Σ_{k = i+1..j} B[k][j]          (row right, same j)
   descendant[i][j] = Σ_{i < k <= l < j} B[k][l]      (strictly inside)

   One sweep, column by column: [down] is a per-row vector advanced by
   each column's cells, and [right] and [descendant] are running sums up
   each column, from the diagonal towards row 0, each fed by the cell
   below it.  Every sum adds its terms in that order, so the result does
   not depend on the sweep's layout. *)
let descendant_pass g b coef =
  let down = Array.make g 0.0 and diag = Array.make g 0.0 in
  for j = 0 to g - 1 do
    let s = b.(idx g j j) in
    diag.(j) <- s;
    coef.(idx g j j) <- s /. 12.0;
    (* [below] and [below_down] are self and down of cell (i + 1, j). *)
    let below = ref s and below_down = ref down.(j) in
    down.(j) <- down.(j) +. s;
    let right = ref 0.0 and desc = ref 0.0 in
    for i = j - 1 downto 0 do
      right := !below +. !right;
      desc := !below_down +. !desc;
      let s = b.(idx g i j) and dn = down.(i) in
      coef.(idx g i j) <-
        !desc
        +. (s /. 4.0)
        +. (dn -. (diag.(i) /. 2.0))
        +. (!right -. (diag.(j) /. 2.0));
      below := s;
      below_down := dn;
      down.(i) <- dn +. s
    done
  done

(* Symmetric pass over the outer (ancestor) histogram: for a descendant in
   cell (i, j), ancestors lie in cells (k, l) with k <= i and l >= j.
   Cells strictly up-left, the shared column above and the shared row left
   are all certain (weight 1); the shared cell weighs 1/4 (1/12 when
   on-diagonal).

   up[i][j]     = Σ_{l = j+1..g-1} A[i][l]            (column above, same i)
   left[i][j]   = Σ_{k = 0..i-1} A[k][j]              (row left, same j)
   ancestor[i][j] = Σ_{k < i, l > j} A[k][l]          (strictly up-left)

   One sweep, column by column from the last: [up] is a per-row vector
   advanced by each column's cells, and [left] and [ancestor] are running
   sums down each column from row 0, each fed by the cell above it. *)
let ancestor_pass g a coef =
  let up = Array.make g 0.0 in
  for j = g - 1 downto 0 do
    (* [above] and [above_up] are self and up of cell (i - 1, j). *)
    let above = ref 0.0 and above_up = ref 0.0 in
    let left = ref 0.0 and anc = ref 0.0 in
    for i = 0 to j do
      if i > 0 then begin
        left := !left +. !above;
        anc := !anc +. !above_up
      end;
      let s = a.(idx g i j) and u = up.(i) in
      let shared = if Int.equal i j then s /. 12.0 else s /. 4.0 in
      coef.(idx g i j) <- !anc +. u +. !left +. shared;
      above := s;
      above_up := u;
      up.(i) <- u +. s
    done
  done

(* The sparse cells scattered into a fresh dense array, the pass run in
   place over it.  A cell absent from [at] reads as 0.0. *)
let pass_over_cells pass grid (at, v) =
  let coef = Array.make (Grid.cells grid) 0.0 in
  for k = 0 to Array.length at - 1 do
    coef.(at.(k)) <- v.(k)
  done;
  pass grid.Grid.size coef coef;
  coef

let descendant_coefficients_of_cells grid cells = pass_over_cells descendant_pass grid cells
let ancestor_coefficients_of_cells grid cells = pass_over_cells ancestor_pass grid cells

let descendant_coefficients histB =
  descendant_coefficients_of_cells (Position_histogram.grid histB)
    (Position_histogram.nonzero histB)

let ancestor_coefficients histA =
  ancestor_coefficients_of_cells (Position_histogram.grid histA)
    (Position_histogram.nonzero histA)

(* Weight of one (ancestor cell, descendant cell) pair under Fig. 9's
   scheme; the pass-based algorithms above are equivalent to summing these
   over all pairs (tested). *)
let cell_pair_weight ?(direction = Ancestor_based) ~anc:(i, j) ~desc:(k, l) () =
  match direction with
  | Ancestor_based ->
    if k < i || l > j || k > l then 0.0
    else if Int.equal k i && Int.equal l j then
      if Int.equal i j then 1.0 /. 12.0 else 0.25
    else if Int.equal i j then 0.0
      (* on-diagonal ancestor joins only its own cell *)
    else if k > i && l < j then 1.0
    else if Int.equal k i && l < j then if Int.equal l i then 0.5 else 1.0
    else if Int.equal l j && k > i then if Int.equal k j then 0.5 else 1.0
    else 0.0
  | Descendant_based ->
    (* roles flipped: (i, j) is the ancestor cell, (k, l) the descendant;
       ancestors of (k, l) lie at cells (i, j) with i <= k and j >= l. *)
    if i > k || j < l then 0.0
    else if Int.equal i k && Int.equal j l then
      if Int.equal k l then 1.0 /. 12.0 else 0.25
    else 1.0

let check_grids a b =
  if not (Grid.compatible (Position_histogram.grid a) (Position_histogram.grid b))
  then invalid_arg "Ph_join: histograms have incompatible grids"

(* The count × coefficient loop every pH-join estimate shares: for each
   non-zero outer cell (row-major index [at.(k)], count [counts.(k)]),
   the per-cell estimate [counts.(k) × coefs.(at.(k))].  Zero products
   are dropped and the rest keep their order, so summing them adds the
   same terms in the same order as a sweep over a dense estimate
   histogram. *)
let weigh ~coefs (at, counts) =
  let n = Array.length at in
  let keep_at = Array.make n 0 and keep = Array.make n 0.0 in
  let m = ref 0 in
  for k = 0 to n - 1 do
    let est = counts.(k) *. coefs.(at.(k)) in
    if not (Float.equal est 0.0) then begin
      keep_at.(!m) <- at.(k);
      keep.(!m) <- est;
      incr m
    end
  done;
  if Int.equal !m n then (keep_at, keep)
  else (Array.sub keep_at 0 !m, Array.sub keep 0 !m)

(* With [Ancestor_based] the coefficients must be [descendant_coefficients
   desc]; with [Descendant_based], [ancestor_coefficients anc].  Callers
   with memoized arrays (e.g. a [Catalog]) pass them in; [estimate]
   computes them, so cached and uncached runs share one loop and stay
   bit-identical by construction. *)
let estimate_with ?(direction = Ancestor_based) ~coefs ~anc ~desc () =
  check_grids anc desc;
  let g = (Position_histogram.grid anc).Grid.size in
  if not (Int.equal (Array.length coefs) (g * g)) then
    invalid_arg
      (Printf.sprintf "Ph_join.estimate_with: %d coefficients for a %dx%d grid"
         (Array.length coefs) g g);
  let outer = match direction with
    | Ancestor_based -> anc
    | Descendant_based -> desc
  in
  Array.fold_left ( +. ) 0.0 (snd (weigh ~coefs (Position_histogram.nonzero outer)))

let estimate ?(direction = Ancestor_based) ~anc ~desc () =
  let coefs =
    match direction with
    | Ancestor_based -> descendant_coefficients desc
    | Descendant_based -> ancestor_coefficients anc
  in
  estimate_with ~direction ~coefs ~anc ~desc ()
