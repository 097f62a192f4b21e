type axis = Child | Descendant

type t = { pred : Predicate.t; edges : (axis * t) list }

let node ?(edges = []) pred = { pred; edges }
let twig root leaves =
  node ~edges:(List.map (fun p -> (Descendant, node p)) leaves) root

let rec size t = List.fold_left (fun acc (_, c) -> acc + size c) 1 t.edges

let edge_count t = size t - 1

let rec fold f acc t =
  List.fold_left (fun acc (_, c) -> fold f acc c) (f acc t) t.edges

let predicates t = List.rev (fold (fun acc n -> n.pred :: acc) [] t)

type flat = {
  preds : Predicate.t array;
  parents : int array;
  axes : axis array;
}

let flatten pattern =
  let preds = ref [] and parents = ref [] and axes = ref [] in
  let counter = ref 0 in
  let rec go parent axis p =
    let id = !counter in
    incr counter;
    preds := p.pred :: !preds;
    parents := parent :: !parents;
    axes := axis :: !axes;
    List.iter (fun (ax, c) -> go id ax c) p.edges
  in
  go (-1) Descendant pattern;
  {
    preds = Array.of_list (List.rev !preds);
    parents = Array.of_list (List.rev !parents);
    axes = Array.of_list (List.rev !axes);
  }

let rec equal a b =
  Predicate.equal a.pred b.pred
  && List.compare_lengths a.edges b.edges = 0
  && List.for_all2
       (fun (ax1, c1) (ax2, c2) ->
         (match (ax1, ax2) with
         | Child, Child | Descendant, Descendant -> true
         | (Child | Descendant), _ -> false)
         && equal c1 c2)
       a.edges b.edges

let axis_string = function Child -> "/" | Descendant -> "//"

let rec pp ppf t =
  let pred_str =
    match t.pred with
    | Predicate.Tag tag -> tag
    | Predicate.True -> "*"
    | p -> Format.asprintf "*[%a]" Predicate.pp p
  in
  Format.pp_print_string ppf pred_str;
  match t.edges with
  | [] -> ()
  | [ (axis, c) ] -> Format.fprintf ppf "%s%a" (axis_string axis) pp c
  | edges ->
    List.iter
      (fun (axis, c) -> Format.fprintf ppf "[.%s%a]" (axis_string axis) pp c)
      edges

let to_string t = Format.asprintf "//%a" pp t
