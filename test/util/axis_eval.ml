(* Set-at-a-time axis navigation over the interval-labeled store, kept as
   a test oracle: one XPath-style location step follows an axis from a
   context node set and keeps the nodes satisfying a predicate, answered
   from the interval labels alone.

   - descendants of [v] are the contiguous pre-order range
     [v+1 .. subtree_last v];
   - ancestors are the parent chain;
   - [Following] of a set is everything starting after the smallest
     context end position, [Preceding] everything ending before the
     largest context start, so set-at-a-time evaluation costs the same as
     single-node.

   Results are distinct and in document order. *)

open Xmlest_core
open Xmlest

type axis =
  | Self
  | Child
  | Parent
  | Descendant  (* strict *)
  | Ancestor  (* strict *)
  | Following  (* starts after the context node ends *)
  | Preceding  (* ends before the context node starts *)

(* Sort + dedupe node indices (pre-order index = document order). *)
let normalize nodes = List.sort_uniq Int.compare nodes

let step doc context axis pred =
  let keep v = Predicate.eval pred doc v in
  let result =
    match axis with
    | Self -> List.filter keep context
    | Child ->
      List.concat_map (fun v -> List.filter keep (Test_util.children doc v)) context
    | Parent ->
      List.filter_map
        (fun v ->
          let p = Document.parent doc v in
          if p >= 0 && keep p then Some p else None)
        context
    | Descendant ->
      (* Merge the contexts' subtree ranges, then collect matching nodes
         range by range; nested contexts collapse into one range. *)
      let ranges =
        List.map (fun v -> (v + 1, Document.subtree_last doc v)) context
        |> List.filter (fun (lo, hi) -> lo <= hi)
        |> List.sort (fun (lo1, hi1) (lo2, hi2) ->
               match Int.compare lo1 lo2 with 0 -> Int.compare hi1 hi2 | c -> c)
      in
      let merged =
        List.fold_left
          (fun acc (lo, hi) ->
            match acc with
            | (plo, phi) :: rest when lo <= phi + 1 -> (plo, Int.max phi hi) :: rest
            | acc -> (lo, hi) :: acc)
          [] ranges
        |> List.rev
      in
      List.concat_map
        (fun (lo, hi) ->
          let out = ref [] in
          for v = hi downto lo do
            if keep v then out := v :: !out
          done;
          !out)
        merged
    | Ancestor ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun v ->
          let rec up u =
            let p = Document.parent doc u in
            if p >= 0 && not (Hashtbl.mem seen p) then begin
              Hashtbl.add seen p ();
              up p
            end
          in
          up v)
        context;
      Hashtbl.fold (fun v () acc -> if keep v then v :: acc else acc) seen []
    | Following -> (
      match context with
      | [] -> []
      | _ ->
        let min_end =
          List.fold_left
            (fun acc v -> Int.min acc (Document.end_pos doc v))
            max_int context
        in
        let out = ref [] in
        for v = Document.size doc - 1 downto 0 do
          if Document.start_pos doc v > min_end && keep v then out := v :: !out
        done;
        !out)
    | Preceding -> (
      match context with
      | [] -> []
      | _ ->
        let max_start =
          List.fold_left
            (fun acc v -> Int.max acc (Document.start_pos doc v))
            (-1) context
        in
        let out = ref [] in
        for v = Document.size doc - 1 downto 0 do
          if Document.end_pos doc v < max_start && keep v then out := v :: !out
        done;
        !out)
  in
  normalize result

let eval doc steps =
  List.fold_left
    (fun context (axis, pred) -> step doc context axis pred)
    [ 0 ] steps
