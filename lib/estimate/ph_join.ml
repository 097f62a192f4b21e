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

(* Sparse evaluation over the non-zero cells.

   Ancestor-based: for each non-zero ancestor cell (i, j),
     coef = desc_region(k > i, l < j) + B(i,j)/4
          + (col_below(k = i, i <= l < j) - B(i,i)/2)
          + (row_right(l = j, i < k <= j) - B(j,j)/2)       [off-diagonal]
     coef = B(i,i)/12                                        [on-diagonal]
   The column/row terms come from per-column/per-row prefix sums; the
   region term is a 2D dominance sum answered offline with a Fenwick tree
   over end-bucket indices while sweeping start buckets downward.

   Descendant-based: for each non-zero descendant cell (i, j), every
   ancestor cell (k <= i, l >= j) weighs 1 except the cell itself (1/4, or
   1/12 on-diagonal) — one dominance sum with the self term patched. *)

let nonzero_cells h =
  let cells = ref [] in
  Position_histogram.iter_nonzero h (fun ~i ~j v -> cells := (i, j, v) :: !cells);
  !cells

let estimate_sparse ?(direction = Ancestor_based) ~anc ~desc () =
  check_grids anc desc;
  let grid = Position_histogram.grid anc in
  let g = grid.Grid.size in
  match direction with
  | Ancestor_based ->
    let anc_cells = nonzero_cells anc and desc_cells = nonzero_cells desc in
    (* per-column and per-row cumulative structures for the inner histogram *)
    let cols = Hashtbl.create 32 and rows = Hashtbl.create 32 in
    List.iter
      (fun (k, l, v) ->
        Hashtbl.replace cols k ((l, v) :: (try Hashtbl.find cols k with Not_found -> []));
        Hashtbl.replace rows l ((k, v) :: (try Hashtbl.find rows l with Not_found -> [])))
      desc_cells;
    let prefixes tbl =
      let out = Hashtbl.create 32 in
      Hashtbl.iter
        (fun key entries ->
          let sorted =
            List.sort
              (fun (p1, v1) (p2, v2) ->
                match Int.compare p1 p2 with 0 -> Float.compare v1 v2 | c -> c)
              entries
          in
          let acc = ref 0.0 in
          let cumulative =
            List.map
              (fun (pos, v) ->
                acc := !acc +. v;
                (pos, !acc))
              sorted
          in
          Hashtbl.replace out key (Array.of_list cumulative))
        tbl;
      out
    in
    let col_prefix = prefixes cols and row_prefix = prefixes rows in
    (* sum over entries of [key]'s array with position <= bound *)
    let cumulative_upto tbl key bound =
      match Hashtbl.find_opt tbl key with
      | None -> 0.0
      | Some arr ->
        let lo = ref (-1) and hi = ref (Array.length arr - 1) in
        (* last index with position <= bound *)
        while !lo < !hi do
          let mid = (!lo + !hi + 1) / 2 in
          if fst arr.(mid) <= bound then lo := mid else hi := mid - 1
        done;
        if !lo < 0 then 0.0 else snd arr.(!lo)
    in
    let cell_value (i, j) =
      if i > j then 0.0 else Position_histogram.get desc ~i ~j
    in
    (* Offline dominance: sweep start buckets downward, inserting desc
       cells with start bucket > i before answering queries at i. *)
    let queries =
      List.sort (fun (i1, _, _) (i2, _, _) -> Int.compare i2 i1) anc_cells
    in
    let inserts =
      List.sort (fun (k1, _, _) (k2, _, _) -> Int.compare k2 k1) desc_cells
    in
    let bit = Fenwick.create g in
    let total = ref 0.0 in
    let remaining = ref inserts in
    List.iter
      (fun (i, j, va) ->
        (* insert all desc cells with k > i *)
        let rec drain () =
          match !remaining with
          | (k, l, v) :: rest when k > i ->
            Fenwick.add bit l v;
            remaining := rest;
            drain ()
          | _ -> ()
        in
        drain ();
        let coef =
          if Int.equal i j then cell_value (i, i) /. 12.0
          else begin
            let region = Fenwick.prefix_sum bit (j - 1) in
            let col_below = cumulative_upto col_prefix i (j - 1) in
            let row_right =
              cumulative_upto row_prefix j j -. cumulative_upto row_prefix j i
            in
            region
            +. (cell_value (i, j) /. 4.0)
            +. (col_below -. (cell_value (i, i) /. 2.0))
            +. (row_right -. (cell_value (j, j) /. 2.0))
          end
        in
        total := !total +. (va *. coef))
      queries;
    !total
  | Descendant_based ->
    let anc_cells = nonzero_cells anc and desc_cells = nonzero_cells desc in
    let cell_value (i, j) =
      if i > j then 0.0 else Position_histogram.get anc ~i ~j
    in
    (* dominance: ancestors of (i, j) are cells (k <= i, l >= j). Sweep i
       upward, inserting anc cells with k <= i, Fenwick over l with suffix
       queries. *)
    let compare_cells (i1, j1, v1) (i2, j2, v2) =
      match Int.compare i1 i2 with
      | 0 -> ( match Int.compare j1 j2 with 0 -> Float.compare v1 v2 | c -> c)
      | c -> c
    in
    let queries = List.sort compare_cells desc_cells in
    let inserts = List.sort compare_cells anc_cells in
    let bit = Fenwick.create g in
    let total = ref 0.0 in
    let remaining = ref inserts in
    List.iter
      (fun (i, j, vd) ->
        let rec drain () =
          match !remaining with
          | (k, l, v) :: rest when k <= i ->
            Fenwick.add bit l v;
            remaining := rest;
            drain ()
          | _ -> ()
        in
        drain ();
        let dominated = Fenwick.range_sum bit ~lo:j ~hi:(g - 1) in
        let self = cell_value (i, j) in
        let self_weight = if Int.equal i j then 1.0 /. 12.0 else 0.25 in
        total := !total +. (vd *. (dominated -. self +. (self *. self_weight))))
      queries;
    !total
