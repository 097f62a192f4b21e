open Xmlest_query
open Xmlest_estimate

type costed = {
  plan : Plan.t;
  cost : float;
  intermediates : float list;
}

let drop_last l =
  match List.rev l with [] -> [] | _ :: rest -> List.rev rest

(* The node set of each plan prefix (the first 2, 3, ..., n nodes of the
   order) as a bitmask of pre-order ids. *)
let prefix_masks order =
  let _, masks =
    List.fold_left
      (fun (mask, acc) v ->
        let mask = mask lor (1 lsl v) in
        (mask, mask :: acc))
      (0, []) order
  in
  match List.rev masks with [] -> [] | _ :: from_two -> from_two

(* Every connected node set's view, each joined once: the dynamic
   program behind [rank].  A set's root is its lowest pre-order id, and
   its last-folded child [c] is the root's largest-id child in the set
   (the set's ancestor of its largest id just below the root).  [c]'s
   sub-twig is the set's part of [c]'s pre-order range, so the set's view
   is the rest's view with [c]'s joined in, exactly the step
   [Twig_estimator.estimate] folds last on the induced sub-twig (whose
   children [Plan.induced] sorts by id).  The views are local to one
   call, so composed coefficient arrays they keep never outlive it. *)
let views ?options catalog pattern =
  let f = Pattern.flatten pattern in
  let n = Array.length f.Pattern.preds in
  (* [stop.(id)]: one past the last pre-order id of [id]'s subtree. *)
  let stop = Array.init n (fun id -> id + 1) in
  for id = n - 1 downto 1 do
    let p = f.Pattern.parents.(id) in
    stop.(p) <- Int.max stop.(p) stop.(id)
  done;
  let mem mask id = not (Int.equal (mask land (1 lsl id)) 0) in
  let memo = Hashtbl.create 64 in
  let rec view mask =
    match Hashtbl.find_opt memo mask with
    | Some v -> v
    | None ->
      let rec lowest id = if mem mask id then id else lowest (id + 1) in
      let rec highest id = if mem mask id then id else highest (id - 1) in
      let root = lowest 0 in
      let v =
        if Int.equal mask (1 lsl root) then Twig_estimator.leaf catalog f.Pattern.preds.(root)
        else begin
          let rec below_root id c =
            if Int.equal id root then c
            else below_root f.Pattern.parents.(id) (if mem mask id then id else c)
          in
          let top = highest (n - 1) in
          let c = below_root top top in
          let sub = mask land ((1 lsl stop.(c)) - 1) land lnot ((1 lsl c) - 1) in
          let axis =
            if Int.equal f.Pattern.parents.(c) root then f.Pattern.axes.(c)
            else Pattern.Descendant
          in
          let rest = view (mask lxor sub) in
          Twig_estimator.join ?options catalog rest axis (view sub)
        end
      in
      Hashtbl.add memo mask v;
      v
  in
  view

let rank ?options catalog pattern =
  let plans = Plan.enumerate pattern in
  (* [Plan.enumerate] has already rejected patterns too large for a
     bitmask of pre-order ids. *)
  let view = views ?options catalog pattern in
  let totals = Hashtbl.create 32 in
  let estimate mask =
    match Hashtbl.find_opt totals mask with
    | Some v -> v
    | None ->
      let v = Twig_estimator.total (view mask) in
      Hashtbl.add totals mask v;
      v
  in
  let costed =
    List.map
      (fun plan ->
        let intermediates = List.map estimate (prefix_masks plan.Plan.order) in
        let cost = List.fold_left ( +. ) 0.0 (drop_last intermediates) in
        { plan; cost; intermediates })
      plans
  in
  List.sort (fun a b -> Float.compare a.cost b.cost) costed

let best ?options catalog pattern =
  if Pattern.edge_count pattern = 0 then
    invalid_arg "Optimizer.best: pattern has no join plans";
  match rank ?options catalog pattern with
  | [] -> invalid_arg "Optimizer.best: pattern has no join plans"
  | p :: _ -> p

let actual_cost doc plan =
  List.fold_left ( + ) 0
    (drop_last (List.map (Xmlest_engine.Twig_count.count doc) plan.Plan.prefixes))
