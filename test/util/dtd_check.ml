(* Checks of generated documents against a {!Xmlest.Dtd.t}: recursion of
   an element's content model, and conformance of a whole tree. *)

open Xmlest_core
open Xmlest.Dtd

let rec referenced acc = function
  | Pcdata | Empty -> acc
  | Elem_ref n -> n :: acc
  | Seq ps | Choice ps -> List.fold_left referenced acc ps
  | Opt p | Star p | Plus p -> referenced acc p

(* Can [name] (transitively) contain another occurrence of itself? *)
let is_recursive dtd name =
  match find dtd name with
  | None -> false
  | Some d ->
    List.exists
      (fun child -> List.mem name (reachable dtd child))
      (referenced [] d.content)

let rec pp_particle ppf = function
  | Pcdata -> Format.fprintf ppf "#PCDATA"
  | Empty -> Format.fprintf ppf "EMPTY"
  | Elem_ref n -> Format.fprintf ppf "%s" n
  | Seq ps ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp_particle)
      ps
  | Choice ps ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "|") pp_particle)
      ps
  | Opt p -> Format.fprintf ppf "%a?" pp_particle p
  | Star p -> Format.fprintf ppf "%a*" pp_particle p
  | Plus p -> Format.fprintf ppf "%a+" pp_particle p

(* Positions reachable in [tags] after matching [p] starting at each
   position of [froms].  Positions are deduplicated to keep the match
   polynomial. *)
let rec advance tags p froms =
  let dedup l = List.sort_uniq Int.compare l in
  match p with
  | Pcdata | Empty -> froms
  | Elem_ref n ->
    List.filter_map
      (fun i ->
        if i < Array.length tags && String.equal tags.(i) n then Some (i + 1)
        else None)
      froms
  | Seq ps -> List.fold_left (fun fs q -> dedup (advance tags q fs)) froms ps
  | Choice ps ->
    dedup (List.concat_map (fun q -> advance tags q froms) ps)
  | Opt q -> dedup (froms @ advance tags q froms)
  | Plus q -> advance tags (Seq [ q; Star q ]) froms
  | Star q ->
    (* Fixpoint: keep applying q while new positions appear. *)
    let rec loop acc frontier =
      let next =
        List.filter (fun i -> not (List.mem i acc)) (advance tags q frontier)
      in
      if next = [] then acc else loop (dedup (acc @ next)) next
    in
    loop (dedup froms) froms

let rec mentions_pcdata = function
  | Pcdata -> true
  | Empty | Elem_ref _ -> false
  | Seq ps | Choice ps -> List.exists mentions_pcdata ps
  | Opt p | Star p | Plus p -> mentions_pcdata p

(* Every element is declared and its child sequence matches its content
   model; text content is permitted exactly where [#PCDATA] appears. *)
let validate dtd root =
  let exception Bad of string in
  let check (e : Xmlest.Elem.t) =
    match find dtd e.tag with
    | None -> raise (Bad (Printf.sprintf "undeclared element <%s>" e.tag))
    | Some d ->
      if e.text <> "" && not (mentions_pcdata d.content) then
        raise (Bad (Printf.sprintf "<%s> has text but its model has no #PCDATA" e.tag));
      let tags = Array.of_list (List.map (fun (c : Xmlest.Elem.t) -> c.tag) e.children) in
      let finals = advance tags d.content [ 0 ] in
      if not (List.mem (Array.length tags) finals) then
        raise
          (Bad
             (Printf.sprintf "<%s> children [%s] do not match %s" e.tag
                (String.concat "; " (Array.to_list tags))
                (Format.asprintf "%a" pp_particle d.content)))
  in
  try
    Test_util.elem_fold (fun () e -> check e) () root;
    Ok ()
  with Bad msg -> Error msg
