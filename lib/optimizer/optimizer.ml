open Xmlest_query
open Xmlest_estimate

type costed = {
  plan : Plan.t;
  cost : float;
  intermediates : float list;
}

let max_nodes = 14

(* Node sets are bitmasks of pre-order ids (bit v for node v); [stop.(v)]
   is one past the last id of [v]'s subtree. *)
type sets = {
  f : Pattern.flat;
  n : int;
  stop : int array;
}

let sets_of pattern =
  let f = Pattern.flatten pattern in
  let n = Array.length f.Pattern.preds in
  if n > max_nodes then
    invalid_arg
      (Printf.sprintf "Optimizer: a pattern of %d nodes, more than the %d a plan search costs"
         n max_nodes);
  let stop = Array.init n (fun id -> id + 1) in
  for id = n - 1 downto 1 do
    let p = f.Pattern.parents.(id) in
    stop.(p) <- Int.max stop.(p) stop.(id)
  done;
  { f; n; stop }

let mem mask id = not (Int.equal (mask land (1 lsl id)) 0)
let single mask = Int.equal (mask land (mask - 1)) 0
let full s = (1 lsl s.n) - 1
let members s mask = List.filter (mem mask) (List.init s.n Fun.id)
let rec lowest mask id = if mem mask id then id else lowest mask (id + 1)
let rec highest mask id = if mem mask id then id else highest mask (id - 1)

(* Connected, through collapsed edges, iff the lowest id is an ancestor
   of every other: every id lies in its pre-order range. *)
let connected s mask = Int.equal (mask lsr s.stop.(lowest mask 0)) 0

(* [f] on each node set, computed once per call; [f] gets the memoized
   function for its recursive calls. *)
let memo s f =
  let table = Array.make (1 lsl s.n) None in
  let rec get mask =
    match table.(mask) with
    | Some v -> v
    | None ->
      let v = f get mask in
      table.(mask) <- Some v;
      v
  in
  get

(* Every connected set's estimated size, its view joined once.  A set's
   root is its lowest id, and its last-folded child [c] is the root's
   largest-id child in the set (the set's ancestor of its largest id just
   below the root).  [c]'s sub-twig is the set's part of [c]'s pre-order
   range, so the set's view is the rest's view with [c]'s joined in,
   exactly the step [Twig_estimator.estimate] folds last on the induced
   sub-twig (whose children [Plan.induced] sorts by id).  The views are
   local to one call, so composed coefficient arrays they keep never
   outlive it. *)
let totals ?options catalog s =
  let parents = s.f.Pattern.parents in
  let view =
    memo s (fun view mask ->
        let root = lowest mask 0 in
        if single mask then Twig_estimator.leaf catalog s.f.Pattern.preds.(root)
        else begin
          let rec below_root id c =
            if Int.equal id root then c else below_root parents.(id) (if mem mask id then id else c)
          in
          let top = highest mask (s.n - 1) in
          let c = below_root top top in
          let sub = mask land ((1 lsl s.stop.(c)) - 1) land lnot ((1 lsl c) - 1) in
          let axis =
            if Int.equal parents.(c) root then s.f.Pattern.axes.(c) else Pattern.Descendant
          in
          let rest = view (mask lxor sub) in
          Twig_estimator.join ?options catalog rest axis (view sub)
        end)
  in
  memo s (fun _ mask -> Twig_estimator.total (view mask))

let rank ?options catalog pattern =
  let s = sets_of pattern in
  let total = totals ?options catalog s in
  let plans = ref [] in
  (* Grows every order, in lexicographic order.  [order] and [sizes] are
     reversed; [cost] sums the sizes of all prefixes but the latest. *)
  let rec extend mask order sizes cost =
    if Int.equal mask (full s) then
      plans := { plan = { order = List.rev order }; cost; intermediates = List.rev sizes } :: !plans
    else
      for v = 0 to s.n - 1 do
        let next = mask lor (1 lsl v) in
        if (not (mem mask v)) && connected s next then
          extend next (v :: order) (total next :: sizes)
            (match sizes with [] -> cost | last :: _ -> cost +. last)
      done
  in
  for v = 0 to s.n - 1 do
    extend (1 lsl v) [ v ] [] 0.0
  done;
  List.stable_sort (fun a b -> Float.compare a.cost b.cost) (List.rev !plans)

(* Selinger's program: each connected set's cheapest order (reversed),
   its cost and its number of orders.  The orders of M are those of each
   connected M - v followed by v; the cheapest costs its prefix's cost
   plus the estimate of M - v, equal costs going to the lexicographically
   smaller order.  Dropping the highest id always leaves a connected set,
   so its order seeds the search. *)
let program ?options catalog pattern =
  let s = sets_of pattern in
  let total = totals ?options catalog s in
  let before (ca, a) (cb, b) =
    match Float.compare ca cb with
    | 0 -> List.compare Int.compare (List.rev a) (List.rev b) < 0
    | d -> d < 0
  in
  let cheapest =
    memo s (fun cheapest mask ->
        let ending v =
          let rest = mask lxor (1 lsl v) in
          let cost, order, count = cheapest rest in
          ((if single rest then cost else cost +. total rest), v :: order, count)
        in
        if single mask then (0.0, [ lowest mask 0 ], 1)
        else
          let seed_cost, seed_order, _ = ending (highest mask (s.n - 1)) in
          List.fold_left
            (fun ((cost, order, count) as acc) v ->
              if not (connected s (mask lxor (1 lsl v))) then acc
              else
                let c, o, n = ending v in
                if before (c, o) (cost, order) then (c, o, count + n) else (cost, order, count + n))
            (seed_cost, seed_order, 0) (members s mask))
  in
  let cost, order, count = cheapest (full s) in
  let order = List.rev order in
  let _, sizes =
    List.fold_left
      (fun (mask, sizes) v ->
        let mask = mask lor (1 lsl v) in
        (mask, if single mask then sizes else total mask :: sizes))
      (0, []) order
  in
  (count, { plan = { order }; cost; intermediates = List.rev sizes })

let best ?options catalog pattern =
  if Pattern.edge_count pattern = 0 then
    invalid_arg "Optimizer.best: pattern has no join plans";
  snd (program ?options catalog pattern)

let listing ?options catalog pattern =
  let orders, cheapest = program ?options catalog pattern in
  (orders, if orders <= 100 then rank ?options catalog pattern else [ cheapest ])

let actual_cost doc pattern plan =
  let order = Array.of_list plan.Plan.order in
  let size k =
    match Plan.induced pattern (Array.to_list (Array.sub order 0 k)) with
    | Some prefix -> Xmlest_engine.Twig_count.count doc prefix
    | None -> invalid_arg "Optimizer.actual_cost: a plan prefix is not connected"
  in
  List.fold_left ( + ) 0 (List.init (Int.max 0 (Array.length order - 2)) (fun j -> size (j + 2)))
