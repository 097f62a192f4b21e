open Xmlest_histogram
type t = float

let estimate ~desc ~coverage =
  let total = ref 0.0 in
  Position_histogram.iter_nonzero desc (fun ~i ~j count ->
      total := !total +. (count *. Coverage_histogram.total_coverage coverage ~i ~j));
  !total

let estimate_cells_by_ancestor ~coverage ~desc_weight ~anc_scale =
  let grid = Position_histogram.grid desc_weight in
  if not (Grid.compatible grid (Coverage_histogram.grid coverage)) then
    invalid_arg "No_overlap.estimate_cells_by_ancestor: incompatible grids";
  let out = Position_histogram.create_empty grid in
  (* Accumulate covered weight into each covering (ancestor) cell, then
     apply the ancestor-side scale. *)
  Position_histogram.iter_nonzero desc_weight (fun ~i ~j w ->
      Coverage_histogram.iter_covers coverage ~i ~j (fun ~m ~n frac ->
          if frac > 0.0 then Position_histogram.add out ~i:m ~j:n (w *. frac)));
  let scaled = Position_histogram.create_empty grid in
  Position_histogram.iter_nonzero out (fun ~i ~j v ->
      let s = anc_scale ~i ~j in
      if not (Float.equal s 0.0) then
        Position_histogram.add scaled ~i ~j (v *. s));
  scaled

let participation_saturation ~n ~m =
  if n <= 0.0 || m <= 0.0 then 0.0
  else if n <= 1.0 then n (* at most one ancestor; it participates *)
  else n *. (1.0 -. Float.pow ((n -. 1.0) /. n) m)
