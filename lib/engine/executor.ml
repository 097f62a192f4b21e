open Xmlest_xmldb
open Xmlest_query

type result = {
  columns : int list;
  rows : Document.node array list;
  intermediate_sizes : int list;
}

(* Nearest ancestor of pattern node [id] (per the original pattern tree)
   that lies in [in_set]. *)
let nearest_in (flat : Pattern.flat) in_set id =
  let rec walk v =
    if v < 0 then None
    else if in_set.(v) then Some v
    else walk flat.Pattern.parents.(v)
  in
  walk flat.Pattern.parents.(id)

(* Structural check for a collapsed edge: [axis] applies only when the
   edge is the original parent edge; collapsed multi-step edges are always
   Descendant. *)
let edge_holds doc flat ~parent_id ~child_id ~parent_node ~child_node =
  let direct = Int.equal flat.Pattern.parents.(child_id) parent_id in
  let axis = if direct then flat.Pattern.axes.(child_id) else Pattern.Descendant in
  match axis with
  | Pattern.Descendant -> Document.is_ancestor doc ~anc:parent_node ~desc:child_node
  | Pattern.Child -> Int.equal (Document.parent doc child_node) parent_node

(* Candidates for pattern node [id], in document order. *)
let candidates doc flat id = Predicate.matching_nodes doc flat.Pattern.preds.(id)

(* Binary search: first index in [nodes] (document order) whose start
   position is >= [pos]. *)
let lower_bound doc nodes pos =
  let lo = ref 0 and hi = ref (Array.length nodes) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Document.start_pos doc nodes.(mid) < pos then lo := mid + 1 else hi := mid
  done;
  !lo

let run doc pattern ~order =
  let flat = Pattern.flatten pattern in
  let n = Array.length flat.Pattern.preds in
  (match List.sort Int.compare order with
  | sorted when List.equal Int.equal sorted (List.init n Fun.id) -> ()
  | _ -> invalid_arg "Executor.run: order is not a permutation of the pattern nodes");
  match order with
  | [] -> { columns = []; rows = []; intermediate_sizes = [] }
  | first :: rest ->
    let in_set = Array.make n false in
    in_set.(first) <- true;
    (* Column index of each placed pattern node. *)
    let column_of = Array.make n (-1) in
    column_of.(first) <- 0;
    let columns = ref [ first ] in
    let rows =
      ref (Array.to_list (Array.map (fun v -> [| v |]) (candidates doc flat first)))
    in
    let sizes = ref [] in
    List.iter
      (fun id ->
        let cands = candidates doc flat id in
        let new_parent = nearest_in flat in_set id in
        (* Columns whose nearest placed ancestor becomes [id]. *)
        let recaptured =
          List.filter
            (fun c ->
              in_set.(id) <- true;
              let res =
                match nearest_in flat in_set c with
                | Some p -> Int.equal p id
                | None -> false
              in
              in_set.(id) <- false;
              res)
            !columns
        in
        (match new_parent with
        | None ->
          if List.for_all (fun c -> not (List.mem c recaptured)) !columns
             && !columns <> []
          then invalid_arg "Executor.run: disconnected prefix in join order"
        | Some _ -> ());
        let extend row =
          let out = ref [] in
          let accept u =
            let ok =
              (match new_parent with
              | Some p ->
                edge_holds doc flat ~parent_id:p ~child_id:id
                  ~parent_node:row.(column_of.(p)) ~child_node:u
              | None -> true)
              && List.for_all
                   (fun c ->
                     edge_holds doc flat ~parent_id:id ~child_id:c ~parent_node:u
                       ~child_node:row.(column_of.(c)))
                   recaptured
            in
            if ok then out := Array.append row [| u |] :: !out
          in
          (match new_parent with
          | Some p ->
            (* Descendants of the bound parent form a contiguous
               start-position range. *)
            let pnode = row.(column_of.(p)) in
            let lo = lower_bound doc cands (Document.start_pos doc pnode + 1) in
            let stop = Document.end_pos doc pnode in
            let k = ref lo in
            while
              !k < Array.length cands && Document.start_pos doc cands.(!k) < stop
            do
              accept cands.(!k);
              incr k
            done
          | None ->
            (* New root: candidates must be ancestors of the recaptured
               columns; scan those starting before the leftmost one. *)
            let leftmost =
              List.fold_left
                (fun acc c -> Int.min acc (Document.start_pos doc row.(column_of.(c))))
                max_int recaptured
            in
            let k = ref 0 in
            while
              !k < Array.length cands
              && Document.start_pos doc cands.(!k) < leftmost
            do
              accept cands.(!k);
              incr k
            done);
          List.rev !out
        in
        rows := List.concat_map extend !rows;
        in_set.(id) <- true;
        column_of.(id) <- List.length !columns;
        columns := !columns @ [ id ];
        sizes := List.length !rows :: !sizes)
      rest;
    { columns = !columns; rows = !rows; intermediate_sizes = List.rev !sizes }

(* A leading '/' keeps the rows that bind the pattern's root (pattern
   node 0) to the document root (node 0), as [Twig_count.count_query]
   counts them. *)
let anchored_rows anchor r =
  match (anchor : Pattern.axis) with
  | Descendant -> r.rows
  | Child -> (
    match List.find_index (Int.equal 0) r.columns with
    | Some col -> List.filter (fun row -> Int.equal row.(col) 0) r.rows
    | None -> [])
