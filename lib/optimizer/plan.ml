open Xmlest_query

type t = { order : int list }

let node_count pattern = Pattern.size pattern

let node_predicate pattern id =
  let f = Pattern.flatten pattern in
  if id < 0 || id >= Array.length f.Pattern.preds then
    invalid_arg "Plan.node_predicate: id out of range";
  f.Pattern.preds.(id)

let induced pattern ids =
  let f = Pattern.flatten pattern in
  let in_set = Array.make (Array.length f.Pattern.preds) false in
  List.iter (fun id -> in_set.(id) <- true) ids;
  (* The nearest proper ancestor in the set, -1 for none. *)
  let rec nearest v = if v < 0 || in_set.(v) then v else nearest f.Pattern.parents.(v) in
  let up id = nearest f.Pattern.parents.(id) in
  let ids = List.sort Int.compare ids in
  let rec build id =
    let child c =
      if not (Int.equal (up c) id) then None
      else if Int.equal f.Pattern.parents.(c) id then Some (f.Pattern.axes.(c), build c)
      else Some (Pattern.Descendant, build c)
    in
    Pattern.node ~edges:(List.filter_map child ids) f.Pattern.preds.(id)
  in
  match List.filter (fun id -> up id < 0) ids with [ root ] -> Some (build root) | _ -> None

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Format.pp_print_int)
    t.order
