open Xmlest_xmldb
open Xmlest_query

type t = {
  grid : Grid.t;
  cells : (int * float) array array;  (* dense cell index -> (level, count) sorted *)
}

let build doc ~grid pred =
  let buckets = Array.make (Grid.cells grid) [] in
  Array.iter
    (fun v ->
      let i, j =
        Grid.cell_of_node grid ~start_pos:(Document.start_pos doc v)
          ~end_pos:(Document.end_pos doc v)
      in
      let c = Grid.index grid ~i ~j in
      let l = Document.level doc v in
      buckets.(c) <-
        (match buckets.(c) with
        | (l', k) :: rest when Int.equal l' l -> (l', k +. 1.0) :: rest
        | rest -> (l, 1.0) :: rest))
    (Predicate.matching_nodes doc pred);
  let cells =
    Array.map
      (fun lst ->
        (* merge non-consecutive duplicates *)
        let tbl = Hashtbl.create 4 in
        List.iter
          (fun (l, k) ->
            let cur = try Hashtbl.find tbl l with Not_found -> 0.0 in
            Hashtbl.replace tbl l (cur +. k))
          lst;
        Hashtbl.fold (fun l k acc -> (l, k) :: acc) tbl []
        |> List.sort (fun (l1, k1) (l2, k2) ->
               match Int.compare l1 l2 with 0 -> Float.compare k1 k2 | c -> c)
        |> Array.of_list)
      buckets
  in
  { grid; cells }

let levels_in t ~i ~j = t.cells.(Grid.index t.grid ~i ~j)

let child_pair_fraction t ~anc_cell:(ai, aj) ~desc ~desc_cell:(di, dj) =
  let anc_levels = levels_in t ~i:ai ~j:aj in
  let desc_levels = levels_in desc ~i:di ~j:dj in
  if Array.length anc_levels = 0 || Array.length desc_levels = 0 then 0.0
  else begin
    let child_pairs = ref 0.0 and all_pairs = ref 0.0 in
    Array.iter
      (fun (la, ca) ->
        Array.iter
          (fun (ld, cd) ->
            if ld > la then begin
              all_pairs := !all_pairs +. (ca *. cd);
              if Int.equal ld (la + 1) then
                child_pairs := !child_pairs +. (ca *. cd)
            end)
          desc_levels)
      anc_levels;
    if !all_pairs <= 0.0 then 0.0 else !child_pairs /. !all_pairs
  end
