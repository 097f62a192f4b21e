open Xmlest_xmldb
open Xmlest_query

type config = {
  value_threshold : float;
  prefix_threshold : float;
  prefix_length : int;
  max_per_tag : int;
}

let default_config =
  { value_threshold = 0.02; prefix_threshold = 0.10; prefix_length = 8; max_per_tag = 20 }

(* Cut a value to its "meaningful prefix": up to (and excluding) the first
   '/', or the first [prefix_length] characters, whichever is shorter. *)
let prefix_of config value =
  let cut =
    match String.index_opt value '/' with
    | Some k -> k
    | None -> String.length value
  in
  String.sub value 0 (Int.min cut config.prefix_length)

let suggest_content ?(config = default_config) doc ~tag =
  let nodes = Document.nodes_with_tag doc tag in
  let total = Array.length nodes in
  if total = 0 then []
  else begin
    let values = Hashtbl.create 64 and prefixes = Hashtbl.create 64 in
    let bump tbl key =
      Hashtbl.replace tbl key (1 + try Hashtbl.find tbl key with Not_found -> 0)
    in
    Array.iter
      (fun v ->
        let text = Document.text doc v in
        if text <> "" then begin
          bump values text;
          let p = prefix_of config text in
          if p <> "" then bump prefixes p
        end)
      nodes;
    let share n = float_of_int n /. float_of_int total in
    let frequent tbl threshold =
      Hashtbl.fold
        (fun key n acc -> if share n >= threshold then (n, key) :: acc else acc)
        tbl []
      |> List.sort (fun (n1, k1) (n2, k2) ->
             match Int.compare n2 n1 with 0 -> String.compare k2 k1 | c -> c)
    in
    let value_preds =
      List.map
        (fun (_, v) -> Predicate.text_eq ~tag v)
        (frequent values config.value_threshold)
    in
    (* Prefix predicates only add information when the exact values are
       individually rare: drop prefixes already dominated by one value. *)
    let covered_values =
      List.filter_map
        (function Predicate.And (_, Predicate.Text_eq v) -> Some (prefix_of config v) | _ -> None)
        value_preds
    in
    let prefix_preds =
      frequent prefixes config.prefix_threshold
      |> List.filter (fun (_, p) -> not (List.mem p covered_values))
      |> List.map (fun (_, p) -> Predicate.text_prefix ~tag p)
    in
    let all = value_preds @ prefix_preds in
    List.filteri (fun k _ -> k < config.max_per_tag) all
  end

let suggest ?(config = default_config) doc =
  let tags = Document.distinct_tags doc in
  List.map Predicate.tag tags
  @ List.concat_map (fun tag -> suggest_content ~config doc ~tag) tags
