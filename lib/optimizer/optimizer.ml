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

let rank ?options catalog pattern =
  let plans = Plan.enumerate pattern in
  (* Different plans of one pattern share many prefixes (every plan ends in
     the full pattern, and small prefixes recur across join orders), so
     estimates are memoized per sub-twig for the duration of the ranking,
     keyed by the prefix's node set as a bitmask of pre-order ids
     ([Plan.enumerate] has already rejected patterns too large for one). *)
  let memo = Hashtbl.create 32 in
  let estimate mask prefix =
    match Hashtbl.find_opt memo mask with
    | Some v -> v
    | None ->
      let v = Twig_estimator.estimate ?options catalog prefix in
      Hashtbl.add memo mask v;
      v
  in
  let costed =
    List.map
      (fun plan ->
        let intermediates =
          List.map2 estimate (prefix_masks plan.Plan.order) plan.Plan.prefixes
        in
        let cost = List.fold_left ( +. ) 0.0 (drop_last intermediates) in
        { plan; cost; intermediates })
      plans
  in
  List.sort (fun a b -> Float.compare a.cost b.cost) costed

let best ?options catalog pattern =
  if Xmlest_query.Pattern.edge_count pattern = 0 then
    invalid_arg "Optimizer.best: pattern has no join plans";
  match rank ?options catalog pattern with
  | [] -> invalid_arg "Optimizer.best: pattern has no join plans"
  | p :: _ -> p

let actual_cost doc plan =
  List.fold_left ( + ) 0
    (drop_last (List.map (Xmlest_engine.Twig_count.count doc) plan.Plan.prefixes))
