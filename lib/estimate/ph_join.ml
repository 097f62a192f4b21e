open Xmlest_histogram
type direction = Ancestor_based | Descendant_based

(* Dense row-major helpers; [i] is the start bucket, [j] the end bucket. *)
let idx g i j = (i * g) + j

(* Fig. 9, passes one and two: partial sums over the inner (descendant)
   histogram.

   self[i][j]       = B[i][j]
   down[i][j]       = Σ_{l = i..j-1} B[i][l]          (column below, same i)
   right[i][j]      = Σ_{k = i+1..j} B[k][j]          (row right, same j)
   descendant[i][j] = Σ_{i < k <= l < j} B[k][l]      (strictly inside)    *)
let descendant_coefficients histB =
  let grid = Position_histogram.grid histB in
  let g = grid.Grid.size in
  let self = Array.make (g * g) 0.0 in
  let down = Array.make (g * g) 0.0 in
  let right = Array.make (g * g) 0.0 in
  let desc = Array.make (g * g) 0.0 in
  for i = 0 to g - 1 do
    for j = i to g - 1 do
      self.(idx g i j) <- Position_histogram.get histB ~i ~j;
      if j > i then
        down.(idx g i j) <- down.(idx g i (j - 1)) +. self.(idx g i (j - 1))
    done
  done;
  for j = g - 1 downto 0 do
    for i = j downto 0 do
      if i < j then begin
        right.(idx g i j) <- self.(idx g (i + 1) j)
                             +. (if i + 1 < j then right.(idx g (i + 1) j) else 0.0);
        desc.(idx g i j) <- down.(idx g (i + 1) j)
                            +. (if i + 1 < j then desc.(idx g (i + 1) j) else 0.0)
      end
    done
  done;
  let coef = Array.make (g * g) 0.0 in
  for i = 0 to g - 1 do
    for j = i to g - 1 do
      if Int.equal i j then coef.(idx g i j) <- self.(idx g i j) /. 12.0
      else
        coef.(idx g i j) <-
          desc.(idx g i j)
          +. (self.(idx g i j) /. 4.0)
          +. (down.(idx g i j) -. (self.(idx g i i) /. 2.0))
          +. (right.(idx g i j) -. (self.(idx g j j) /. 2.0))
    done
  done;
  coef

(* Symmetric pass over the outer (ancestor) histogram: for a descendant in
   cell (i, j), ancestors lie in cells (k, l) with k <= i and l >= j.
   Cells strictly up-left, the shared column above and the shared row left
   are all certain (weight 1); the shared cell weighs 1/4 (1/12 when
   on-diagonal).

   up[i][j]     = Σ_{l = j+1..g-1} A[i][l]            (column above, same i)
   left[i][j]   = Σ_{k = 0..i-1} A[k][j]              (row left, same j)
   ancestor[i][j] = Σ_{k < i, l > j} A[k][l]          (strictly up-left)   *)
let ancestor_coefficients histA =
  let grid = Position_histogram.grid histA in
  let g = grid.Grid.size in
  let self = Array.make (g * g) 0.0 in
  let up = Array.make (g * g) 0.0 in
  let left = Array.make (g * g) 0.0 in
  let anc = Array.make (g * g) 0.0 in
  for i = 0 to g - 1 do
    for j = g - 1 downto i do
      self.(idx g i j) <- Position_histogram.get histA ~i ~j;
      if j < g - 1 then
        up.(idx g i j) <- up.(idx g i (j + 1)) +. self.(idx g i (j + 1))
    done
  done;
  for j = 0 to g - 1 do
    for i = 0 to j do
      if i > 0 then begin
        left.(idx g i j) <- left.(idx g (i - 1) j) +. self.(idx g (i - 1) j);
        anc.(idx g i j) <- anc.(idx g (i - 1) j) +. up.(idx g (i - 1) j)
      end
    done
  done;
  let coef = Array.make (g * g) 0.0 in
  for i = 0 to g - 1 do
    for j = i to g - 1 do
      let shared =
        if Int.equal i j then self.(idx g i j) /. 12.0
        else self.(idx g i j) /. 4.0
      in
      coef.(idx g i j) <- anc.(idx g i j) +. up.(idx g i j) +. left.(idx g i j) +. shared
    done
  done;
  coef

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
