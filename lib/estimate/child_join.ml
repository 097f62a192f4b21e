open Xmlest_histogram

let estimate_cells ~anc ~desc ~anc_levels ~desc_levels () =
  let grid = Position_histogram.grid anc in
  if not (Grid.compatible grid (Position_histogram.grid desc)) then
    invalid_arg "Child_join: histograms have incompatible grids";
  let out = Position_histogram.create_empty grid in
  (* Collect the non-zero cells once; both lists are O(g) by Theorem 1. *)
  let desc_cells = ref [] in
  Position_histogram.iter_nonzero desc (fun ~i ~j v ->
      desc_cells := ((i, j), v) :: !desc_cells);
  let desc_cells = !desc_cells in
  Position_histogram.iter_nonzero anc (fun ~i ~j anc_count ->
      let contribution = ref 0.0 in
      List.iter
        (fun ((k, l), desc_count) ->
          let w = Ph_join.cell_pair_weight ~anc:(i, j) ~desc:(k, l) () in
          if w > 0.0 then begin
            let fraction =
              Level_position_histogram.child_pair_fraction anc_levels
                ~anc_cell:(i, j) ~desc:desc_levels ~desc_cell:(k, l)
            in
            if fraction > 0.0 then
              contribution := !contribution +. (w *. desc_count *. fraction)
          end)
        desc_cells;
      if !contribution > 0.0 then
        Position_histogram.add out ~i ~j (anc_count *. !contribution));
  out

