(* Tests for plan enumeration and the cost-based join-order chooser. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check

let tagp = Xmlest.Predicate.tag

(* Fig. 2's query: department//faculty[.//TA][.//RA] — the example the
   paper's introduction uses to motivate join-order choice. *)
let fig2_pattern () =
  Xmlest.Pattern.node
    ~edges:
      [
        ( Xmlest.Pattern.Descendant,
          Xmlest.Pattern.node
            ~edges:
              [
                (Xmlest.Pattern.Descendant, Xmlest.Pattern.node (tagp "TA"));
                (Xmlest.Pattern.Descendant, Xmlest.Pattern.node (tagp "RA"));
              ]
            (tagp "faculty") );
      ]
    (tagp "department")

(* --- Plan ------------------------------------------------------------------ *)

let test_node_count_and_preds () =
  let p = fig2_pattern () in
  check Alcotest.int "nodes" 4 (Xmlest.Plan.node_count p);
  check Alcotest.string "node 0" "tag=department"
    (Xmlest.Predicate.name (Xmlest.Plan.node_predicate p 0));
  check Alcotest.string "node 1" "tag=faculty"
    (Xmlest.Predicate.name (Xmlest.Plan.node_predicate p 1));
  check Alcotest.string "node 2" "tag=TA"
    (Xmlest.Predicate.name (Xmlest.Plan.node_predicate p 2));
  check Alcotest.string "node 3" "tag=RA"
    (Xmlest.Predicate.name (Xmlest.Plan.node_predicate p 3))

let test_induced_subpatterns () =
  let p = fig2_pattern () in
  (* {faculty, RA} -> faculty//RA *)
  (match Xmlest.Plan.induced p [ 1; 3 ] with
  | Some sub ->
    check Alcotest.string "faculty//RA" "//faculty//RA"
      (Xmlest.Pattern.to_string sub)
  | None -> Alcotest.fail "expected connected");
  (* {department, TA}: connected through the collapsed faculty edge *)
  (match Xmlest.Plan.induced p [ 0; 2 ] with
  | Some sub ->
    check Alcotest.string "department//TA" "//department//TA"
      (Xmlest.Pattern.to_string sub)
  | None -> Alcotest.fail "expected connected via collapsing");
  (* {TA, RA}: siblings, no common node in the set -> disconnected *)
  check Alcotest.bool "TA,RA disconnected" true
    (Xmlest.Plan.induced p [ 2; 3 ] = None);
  check Alcotest.bool "empty set" true (Xmlest.Plan.induced p [] = None)

let test_induced_preserves_axis () =
  let p =
    Xmlest.Pattern.node
      ~edges:[ (Xmlest.Pattern.Child, Xmlest.Pattern.node (tagp "b")) ]
      (tagp "a")
  in
  match Xmlest.Plan.induced p [ 0; 1 ] with
  | Some sub ->
    (match sub.Xmlest.Pattern.edges with
    | [ (Xmlest.Pattern.Child, _) ] -> ()
    | _ -> Alcotest.fail "child axis should be preserved")
  | None -> Alcotest.fail "expected connected"

(* Every left-deep order of the pattern, with its prefixes: each
   connectivity check and each prefix is induced afresh from its id list. *)
type oracle_plan = { order : int list; prefixes : Xmlest.Pattern.t list }

let enumerate_oracle pattern =
  let n = Xmlest.Plan.node_count pattern in
  let plans = ref [] in
  let rec extend chosen remaining =
    match remaining with
    | [] ->
      let order = List.rev chosen in
      let arr = Array.of_list order in
      let prefixes =
        List.init
          (Int.max 0 (n - 1))
          (fun k ->
            match Xmlest.Plan.induced pattern (Array.to_list (Array.sub arr 0 (k + 2))) with
            | Some p -> p
            | None -> Alcotest.fail "disconnected prefix")
      in
      plans := { order; prefixes } :: !plans
    | _ ->
      List.iter
        (fun v ->
          let candidate = v :: chosen in
          let connected =
            List.length candidate = 1 || Xmlest.Plan.induced pattern candidate <> None
          in
          if connected then extend candidate (List.filter (fun u -> u <> v) remaining))
        remaining
  in
  extend [] (List.init n Fun.id);
  List.rev !plans

let fig1_catalog () =
  Xmlest.Summary.catalog
    (Xmlest.Summary.build ~grid_size:4 (Test_util.fig1_doc ())
       [ tagp "department"; tagp "faculty"; tagp "TA"; tagp "RA" ])

(* [rank] lists every order, and [listing] counts them without listing. *)
let ranked_orders pattern =
  let catalog = fig1_catalog () in
  let ranked = Xmlest.Optimizer.rank catalog pattern in
  check Alcotest.int "listing counts every order" (List.length ranked)
    (fst (Xmlest.Optimizer.listing catalog pattern));
  ranked

let test_enumerate_pair () =
  let plans = ranked_orders (Xmlest.Pattern.twig (tagp "a") [ tagp "b" ]) in
  (* Orders: [0;1] and [1;0]; both connect. *)
  check Alcotest.int "two plans" 2 (List.length plans);
  List.iter
    (fun c ->
      check Alcotest.int "one prefix" 1 (List.length c.Xmlest.Optimizer.intermediates))
    plans

let test_enumerate_fig2 () =
  let p = fig2_pattern () in
  let plans = ranked_orders p in
  (* Every permutation of 4 nodes whose prefixes stay connected. *)
  check Alcotest.(list (list int)) "the oracle's orders"
    (List.map (fun pl -> pl.order) (enumerate_oracle p))
    (List.sort (List.compare Int.compare)
       (List.map (fun c -> c.Xmlest.Optimizer.plan.Xmlest.Plan.order) plans));
  List.iter
    (fun c ->
      let order = c.Xmlest.Optimizer.plan.Xmlest.Plan.order in
      check Alcotest.int "order is a permutation" 4
        (List.length (List.sort_uniq compare order));
      check Alcotest.int "three prefixes" 3 (List.length c.Xmlest.Optimizer.intermediates);
      (* the whole order induces the full pattern *)
      match Xmlest.Plan.induced p order with
      | Some last ->
        Alcotest.(check bool) "full pattern last" true (Xmlest.Pattern.equal last p)
      | None -> Alcotest.fail "disconnected order")
    plans;
  (* No plan may start with the disconnected pair {TA, RA}. *)
  List.iter
    (fun c ->
      match c.Xmlest.Optimizer.plan.Xmlest.Plan.order with
      | a :: b :: _ ->
        Alcotest.(check bool) "no cross product" false
          ((a = 2 && b = 3) || (a = 3 && b = 2))
      | _ -> ())
    plans

(* --- Optimizer --------------------------------------------------------------- *)

let test_rank_and_best () =
  let catalog = fig1_catalog () in
  let ranked = Xmlest.Optimizer.rank catalog (fig2_pattern ()) in
  Alcotest.(check bool) "non-empty" true (ranked <> []);
  (* Sorted by cost. *)
  let costs = List.map (fun c -> c.Xmlest.Optimizer.cost) ranked in
  let sorted = List.sort Float.compare costs in
  Alcotest.(check bool) "sorted" true (costs = sorted);
  let best = Xmlest.Optimizer.best catalog (fig2_pattern ()) in
  check (Alcotest.float 1e-9) "best = head" (List.hd costs) best.Xmlest.Optimizer.cost

let test_single_node_pattern_rejected () =
  let doc = Test_util.fig1_doc () in
  let summary = Xmlest.Summary.build ~grid_size:4 doc [ tagp "TA" ] in
  Alcotest.check_raises "no joins"
    (Invalid_argument "Optimizer.best: pattern has no join plans") (fun () ->
      ignore
        (Xmlest.Optimizer.best (Xmlest.Summary.catalog summary)
           (Xmlest.Pattern.node (tagp "TA"))))

let test_actual_intermediates () =
  let doc = Test_util.fig1_doc () in
  let p = fig2_pattern () in
  let plans = enumerate_oracle p in
  List.iter
    (fun pl ->
      let sizes = List.map (Xmlest.Twig_count.count doc) pl.prefixes in
      check Alcotest.int "one size per prefix" (List.length pl.prefixes) (List.length sizes);
      (* Final prefix is the whole query: 1 faculty × 2 TA × 2 RA = 4,
         times 1 department. *)
      match List.rev sizes with
      | last :: _ -> check Alcotest.int "final size" 4 last
      | [] -> Alcotest.fail "no sizes")
    plans

let test_optimizer_picks_good_plan_on_staff () =
  (* On the synthetic staff data, check the chosen plan's actual cost is
     within 2x of the true optimum over all plans. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let preds = [ tagp "manager"; tagp "department"; tagp "employee"; tagp "email" ] in
  let summary = Xmlest.Summary.build ~grid_size:10 doc preds in
  let pattern =
    Xmlest.Pattern.node
      ~edges:
        [
          ( Xmlest.Pattern.Descendant,
            Xmlest.Pattern.node
              ~edges:
                [
                  ( Xmlest.Pattern.Descendant,
                    Xmlest.Pattern.node
                      ~edges:
                        [ (Xmlest.Pattern.Descendant, Xmlest.Pattern.node (tagp "email")) ]
                      (tagp "employee") );
                ]
              (tagp "department") );
        ]
      (tagp "manager")
  in
  let best = Xmlest.Optimizer.best (Xmlest.Summary.catalog summary) pattern in
  let chosen_cost = Xmlest.Optimizer.actual_cost doc pattern best.Xmlest.Optimizer.plan in
  let optimal =
    List.fold_left
      (fun acc pl -> min acc (Xmlest.Optimizer.actual_cost doc pattern { order = pl.order }))
      max_int (enumerate_oracle pattern)
  in
  Alcotest.(check bool)
    (Printf.sprintf "chosen %d within 2x of optimal %d" chosen_cost optimal)
    true
    (chosen_cost <= (2 * optimal) + 10)

let test_executor_agrees_with_actual_intermediates () =
  (* The executor's materialized row counts must equal the counting
     engine's sizes for the same plan prefixes. *)
  let doc = Test_util.fig1_doc () in
  let p = fig2_pattern () in
  List.iter
    (fun pl ->
      let by_count = List.map (Xmlest.Twig_count.count doc) pl.prefixes in
      let by_exec =
        (Xmlest.Executor.run doc p ~order:pl.order).Xmlest.Executor.intermediate_sizes
      in
      check Alcotest.(list int)
        (Format.asprintf "plan %a" Xmlest.Plan.pp { order = pl.order })
        by_count by_exec)
    (enumerate_oracle p)

let test_estimated_final_size_plan_invariant () =
  (* The final prefix of every plan is the whole pattern, so its estimate
     must not depend on the join order used to reach it. *)
  let doc = Test_util.fig1_doc () in
  let summary =
    Xmlest.Summary.build ~grid_size:4 doc
      [ tagp "department"; tagp "faculty"; tagp "RA" ]
  in
  let catalog = Xmlest.Summary.catalog summary in
  let pattern =
    Test_util.chain [ tagp "department"; tagp "faculty"; tagp "RA" ]
  in
  let finals =
    List.map
      (fun c -> List.nth c.Xmlest.Optimizer.intermediates 1)
      (Xmlest.Optimizer.rank catalog pattern)
  in
  match finals with
  | [] -> Alcotest.fail "no plans"
  | f :: rest ->
    List.iter
      (fun f' ->
        Alcotest.(check bool)
          "final estimates equal across plans" true
          (Test_util.float_close ~tolerance:1e-6 f f'))
      rest

(* --- Node-set program = the per-string oracles ----------------------------- *)

(* [Optimizer.rank] as the per-string oracle: estimates of each
   prefix by [Twig_estimator.estimate], memoized by the prefix's
   [Pattern.to_string], over the oracle enumeration. *)
let rank_oracle ?options catalog pattern =
  let memo = Hashtbl.create 32 in
  let estimate prefix =
    let key = Xmlest.Pattern.to_string prefix in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v = Xmlest.Twig_estimator.estimate ?options catalog prefix in
      Hashtbl.add memo key v;
      v
  in
  List.map
    (fun plan ->
      let intermediates = List.map estimate plan.prefixes in
      let cost =
        List.fold_left ( +. ) 0.0
          (List.filteri (fun k _ -> k < List.length intermediates - 1) intermediates)
      in
      { Xmlest.Optimizer.plan = { order = plan.order }; cost; intermediates })
    (enumerate_oracle pattern)
  |> List.sort (fun a b -> Float.compare a.Xmlest.Optimizer.cost b.Xmlest.Optimizer.cost)

(* [best]'s rule over the oracle's plans: the lexicographically smallest
   order every prefix of which is a cheapest order of its own node set.
   Its cost is the head's.  The head is the lexicographically smallest
   cheapest order, which differs only where rounding absorbs the extra
   cost of one of its prefixes into a tie. *)
let best_oracle oracle =
  let prefix_costs (c : Xmlest.Optimizer.costed) =
    let order = Array.of_list c.plan.order in
    List.mapi
      (fun j _ ->
        ( List.sort Int.compare (Array.to_list (Array.sub order 0 (j + 2))),
          List.fold_left ( +. ) 0.0 (List.filteri (fun m _ -> m < j) c.intermediates) ))
      c.intermediates
  in
  let cheapest = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun (set, cost) ->
          match Hashtbl.find_opt cheapest set with
          | Some m when Float.compare m cost <= 0 -> ()
          | _ -> Hashtbl.replace cheapest set cost)
        (prefix_costs c))
    oracle;
  let prefix_optimal c =
    List.for_all
      (fun (set, cost) -> Float.compare cost (Hashtbl.find cheapest set) = 0)
      (prefix_costs c)
  in
  match
    List.sort
      (fun (a : Xmlest.Optimizer.costed) b -> List.compare Int.compare a.plan.order b.plan.order)
      (List.filter prefix_optimal oracle)
  with
  | c :: _ -> c
  | [] -> Alcotest.fail "no prefix-optimal order"

(* The five option sets of the Estimator invariant, all of which [rank]
   passes through to the join step. *)
let option_sets =
  let d = Xmlest.Twig_estimator.default_options in
  [
    d;
    { d with direction = Xmlest.Ph_join.Descendant_based };
    { d with child_mode = Xmlest.Twig_estimator.Level_scaled };
    { d with child_mode = Xmlest.Twig_estimator.Cell_level_scaled };
    { d with use_no_overlap = false };
  ]

(* Leaves never nest, so renaming every leaf element to [leaf_tag] gives
   the summary a tag with a coverage histogram, and joins below it take
   the coverage path. *)
let leaf_tag = "w"

let rec leaves_renamed (e : Xmlest.Elem.t) =
  if e.children = [] then { e with tag = leaf_tag }
  else { e with children = List.map leaves_renamed e.children }

let base_tags = Array.append Test_util.tag_pool [| leaf_tag |]

(* Node predicates: the pool's tags, the non-nesting leaf tag, and
   [And]/[Or] compounds the catalog resolves from them. *)
let random_pred st =
  let tag () = tagp base_tags.(Random.State.int st (Array.length base_tags)) in
  match Random.State.int st 6 with
  | 0 -> Xmlest.Predicate.And (tag (), tag ())
  | 1 -> Xmlest.Predicate.Or (tag (), tag ())
  | _ -> tag ()

let rec random_twig st ~budget =
  let pred = random_pred st in
  let rec children budget acc =
    if budget <= 0 || Random.State.int st 3 = 0 then (List.rev acc, budget)
    else begin
      let axis =
        if Random.State.bool st then Xmlest.Pattern.Descendant else Xmlest.Pattern.Child
      in
      let child, budget = random_twig st ~budget:(budget - 1) in
      children budget ((axis, child) :: acc)
    end
  in
  let edges, budget = children budget [] in
  (Xmlest.Pattern.node ~edges pred, budget)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [rank] joins one view into several parents, and a composed view keeps
   the coefficient pass it ran for an unscaled edge.  Every edge's lower
   sub-twig, folded through the public join step, is joined below its
   upper node's leaf by [//], then [/], then [//] again, and each result
   must equal a fresh estimate bit for bit: a pass kept from one edge must
   never serve an edge that scales the view. *)
let reuse_agrees options catalog pattern =
  let module P = Xmlest.Pattern in
  let module E = Xmlest.Twig_estimator in
  let rec fold (p : P.t) =
    List.fold_left
      (fun acc (axis, child) -> E.join ~options catalog acc axis (fold child))
      (E.leaf catalog p.pred) p.edges
  in
  let rec edges (p : P.t) =
    List.concat_map (fun (_, child) -> (p.pred, child) :: edges child) p.edges
  in
  List.for_all
    (fun (pred, child) ->
      let v = fold child in
      List.for_all
        (fun axis ->
          same_bits
            (E.total (E.join ~options catalog (E.leaf catalog pred) axis v))
            (E.estimate ~options catalog (P.node ~edges:[ (axis, child) ] pred)))
        [ P.Descendant; P.Child; P.Descendant ])
    (edges pattern)

(* [rank] under every option set gives the oracle's plans and costs, and
   each intermediate is, bit for bit, the estimate of its prefix; [best]
   costs what the oracle's head costs and is [best_oracle]'s plan, and
   [listing] counts the oracle's plans.  Returns the number of coverage
   joins among the full pattern's steps. *)
let oracles_agree catalog pattern =
  List.fold_left
    (fun coverage options ->
      let oracle = rank_oracle ~options catalog pattern in
      let agrees (a : Xmlest.Optimizer.costed) (b : Xmlest.Optimizer.costed) =
        List.equal Int.equal a.plan.order b.plan.order
        && same_bits a.cost b.cost
        && List.equal same_bits a.intermediates b.intermediates
      in
      let fail what =
        QCheck.Test.fail_reportf "%s: %s" (Xmlest.Pattern.to_string pattern) what
      in
      if not (List.equal agrees (Xmlest.Optimizer.rank ~options catalog pattern) oracle) then
        fail "rank differs from the per-prefix oracle";
      (match oracle with
      | head :: _ :: _ ->
        let best = Xmlest.Optimizer.best ~options catalog pattern in
        if not (same_bits best.cost head.cost && agrees best (best_oracle oracle)) then
          fail "best differs from the per-prefix oracle"
      | _ -> ());
      if not (Int.equal (fst (Xmlest.Optimizer.listing ~options catalog pattern))
                (List.length oracle)) then
        fail "listing miscounts the orders";
      if not (reuse_agrees options catalog pattern) then
        fail "a reused view differs from a fresh one";
      let _, steps = Xmlest.Twig_estimator.estimate_trace ~options catalog pattern in
      coverage
      + List.length
          (List.filter
             (fun (s : Xmlest.Twig_estimator.step) -> String.equal s.method_used "coverage")
             steps))
    0 option_sets

let prop_node_set_program_matches_oracles =
  QCheck.Test.make ~count:100
    ~name:"node-set program: best and rank = per-string oracles"
    (QCheck.make
       ~print:(fun (e, pattern, size, kind) ->
         Format.asprintf "g=%d %s %s in %a" size
           (match kind with `Uniform -> "uniform" | `Equidepth -> "equidepth")
           (Xmlest.Pattern.to_string pattern)
           Test_util.pp_elem e)
       (fun st ->
         let e = leaves_renamed (Test_util.elem_gen ~max_nodes:60 () st) in
         let pattern, _ = random_twig st ~budget:(Random.State.int st 6) in
         let size =
           match Random.State.int st 4 with
           | 0 -> 1
           | 1 -> 2
           | _ -> 3 + Random.State.int st 10
         in
         let kind = if Random.State.bool st then `Uniform else `Equidepth in
         (e, pattern, size, kind)))
    (fun (e, pattern, size, grid_kind) ->
      let doc = Xmlest.Document.of_elem e in
      let grid_size = min size (Xmlest.Document.max_pos doc + 1) in
      let catalog =
        Xmlest.Summary.catalog
          (Xmlest.Summary.build ~grid_size ~grid_kind doc
             (List.map tagp (Array.to_list base_tags)))
      in
      ignore (oracles_agree catalog pattern);
      true)

(* The same comparison on staff data, whose [department], [email] and
   [name] never nest, so coverage joins are certain to be compared. *)
let test_rank_matches_oracle_on_staff () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let preds = List.map tagp [ "manager"; "department"; "employee"; "email"; "name" ] in
  List.iter
    (fun (grid_size, grid_kind) ->
      let catalog =
        Xmlest.Summary.catalog (Xmlest.Summary.build ~grid_size ~grid_kind doc preds)
      in
      let coverage =
        List.fold_left
          (fun n q -> n + oracles_agree catalog (Xmlest.Pattern_parser.pattern_exn q))
          0
          [ "//manager//department//employee"; "//manager[.//email]//employee/name";
            "//department[./email]//employee[.//name]"; "//manager[./name]/department" ]
      in
      Alcotest.(check bool) "coverage joins compared" true (coverage > 0))
    [ (1, `Uniform); (2, `Equidepth); (10, `Uniform); (10, `Equidepth) ]

(* A case the property found: the two-node sets {1, 2} and {2, 4} estimate
   one ulp apart, and the rest of the order absorbs the difference.  The
   cheapest orders [1; 2; 4; ...] and [2; 4; 1; ...] tie, so [rank]'s
   head is the first, but only the second has a cheapest prefix, and
   [best] keeps it. *)
let test_best_rounding_tie () =
  let doc =
    Xmlest.Document.of_elem
      (Xmlest.Xml_parser.parse_string_exn
         "<e><e><c><a><b><w/></b></a><w/><w/></c><c><d><w/></d><e><w/><w/></e></c><a><w/><w/></a><w/><w/></e><c><b><a><c><d><e><w/></e><b><b><w/></b><w/></b><a><e><w/></e><w/></a><w/><w/><w/></d><w/></c><a><b><w/><w/><w/></b></a></a><w/></b><a><b><w/></b></a><b><b><w/></b><w/><w/></b><a><w/></a></c><w/><w/><w/></e>")
  in
  let catalog =
    Xmlest.Summary.catalog
      (Xmlest.Summary.build ~grid_size:5 ~grid_kind:`Equidepth doc
         (List.map tagp (Array.to_list base_tags)))
  in
  (* //w/d/*[tag=d&tag=w][.//*[tag=d|tag=c]/a][./w] *)
  let node = Xmlest.Pattern.node in
  let child = Xmlest.Pattern.Child and desc = Xmlest.Pattern.Descendant in
  let pattern =
    node (tagp "w")
      ~edges:
        [
          ( child,
            node (tagp "d")
              ~edges:
                [
                  ( child,
                    node
                      (Xmlest.Predicate.And (tagp "d", tagp "w"))
                      ~edges:
                        [
                          ( desc,
                            node
                              (Xmlest.Predicate.Or (tagp "d", tagp "c"))
                              ~edges:[ (child, node (tagp "a")) ] );
                          (child, node (tagp "w"));
                        ] );
                ] );
        ]
  in
  let splits =
    List.filter
      (fun options ->
        let best = Xmlest.Optimizer.best ~options catalog pattern in
        match Xmlest.Optimizer.rank ~options catalog pattern with
        | head :: _ ->
          check Alcotest.bool "same cost" true (same_bits best.cost head.cost);
          not (List.equal Int.equal best.plan.order head.plan.order)
        | [] -> Alcotest.fail "no plans")
      option_sets
  in
  Alcotest.(check bool) "best and rank's head split the tie" true (splits <> []);
  ignore (oracles_agree catalog pattern)

(* Each tag of a-b-c-d-e nests in itself, so every join is a pH-join. *)
let nesting_doc () =
  let tags = [ "a"; "b"; "c"; "d"; "e" ] in
  let rec path = function
    | [] -> []
    | t :: rest -> [ Xmlest.Elem.make ~children:(path rest) t ]
  in
  match path (tags @ tags) with
  | [ e ] -> Xmlest.Document.of_elem e
  | _ -> assert false

(* Coefficient lookups on a warm catalog over one [rank] or [best]: only a leaf
   descendant asks the catalog, once per join, and the node-set program
   joins each connected set once.  Every set of a chain's nodes is
   connected, and its last child carries the rest of the set below its
   root, so only the ten two-node sets join a leaf; each of a star's
   fifteen sets joins its largest leaf.  The per-prefix oracle joins
   every prefix from scratch. *)
let test_rank_catalog_lookups () =
  let summary =
    Xmlest.Summary.build ~grid_size:4 (nesting_doc ())
      (List.map tagp [ "a"; "b"; "c"; "d"; "e" ])
  in
  let catalog = Xmlest.Summary.catalog summary in
  let hcat = Xmlest.Summary.hist_catalog summary in
  let lookups rank pattern =
    ignore (rank catalog pattern);
    Xmlest.Hist_catalog.reset_counters hcat;
    ignore (rank catalog pattern);
    let c = Xmlest.Hist_catalog.counters hcat in
    check Alcotest.int "warm" 0 c.Xmlest.Hist_catalog.misses;
    c.Xmlest.Hist_catalog.hits + c.Xmlest.Hist_catalog.misses
  in
  List.iter
    (fun (name, pattern, joins) ->
      let dp = lookups (fun c p -> Xmlest.Optimizer.rank c p) pattern in
      check Alcotest.int (name ^ ": best joins the same sets") dp
        (lookups (fun c p -> Xmlest.Optimizer.best c p) pattern);
      let oracle = lookups (fun c p -> rank_oracle c p) pattern in
      check Alcotest.int (name ^ ": one lookup per leaf-descendant join") joins dp;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d below the oracle's %d" name dp oracle)
        true (dp < oracle))
    [
      ("chain", Test_util.chain (List.map tagp [ "a"; "b"; "c"; "d"; "e" ]), 10);
      ("star", Xmlest.Pattern.twig (tagp "a") (List.map tagp [ "b"; "c"; "d"; "e" ]), 15);
    ]

let test_node_limit () =
  (* The plan search keeps a view per connected node set, and every set of
     a chain's nodes is connected: past [max_nodes] it is refused up
     front.  At the limit [best] answers, and with every estimate zero
     the tie rule keeps the identity order of the chain's n! orders. *)
  let n = Xmlest.Optimizer.max_nodes in
  let chain k = Test_util.chain (List.init k (fun _ -> tagp "a")) in
  let catalog =
    Xmlest.Summary.catalog
      (Xmlest.Summary.build ~grid_size:4 (Test_util.fig1_doc ()) [ tagp "a" ])
  in
  let rejects f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun (name, search) ->
      Alcotest.(check bool) (name ^ " rejects") true
        (rejects (fun () -> search catalog (chain (n + 1)))))
    [
      ("best", fun c p -> ignore (Xmlest.Optimizer.best c p));
      ("rank", fun c p -> ignore (Xmlest.Optimizer.rank c p));
      ("listing", fun c p -> ignore (Xmlest.Optimizer.listing c p));
    ];
  let orders, listed = Xmlest.Optimizer.listing catalog (chain n) in
  let rec factorial k = if k <= 1 then 1 else k * factorial (k - 1) in
  check Alcotest.int "n! orders" (factorial n) orders;
  match listed with
  | [ best ] ->
    check Alcotest.(list int) "identity order" (List.init n Fun.id)
      best.Xmlest.Optimizer.plan.Xmlest.Plan.order
  | _ -> Alcotest.fail "expected the cheapest plan alone"

let () =
  Alcotest.run "optimizer"
    [
      ( "plan",
        [
          Alcotest.test_case "node count and predicates" `Quick
            test_node_count_and_preds;
          Alcotest.test_case "induced subpatterns" `Quick test_induced_subpatterns;
          Alcotest.test_case "axis preserved" `Quick test_induced_preserves_axis;
          Alcotest.test_case "enumerate pair" `Quick test_enumerate_pair;
          Alcotest.test_case "enumerate Fig. 2" `Quick test_enumerate_fig2;
          Alcotest.test_case "node limit" `Quick test_node_limit;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "rank and best" `Quick test_rank_and_best;
          Alcotest.test_case "single node rejected" `Quick
            test_single_node_pattern_rejected;
          Alcotest.test_case "actual intermediates" `Quick test_actual_intermediates;
          Alcotest.test_case "good plan on staff data" `Quick
            test_optimizer_picks_good_plan_on_staff;
          Alcotest.test_case "final estimate plan-invariant" `Quick
            test_estimated_final_size_plan_invariant;
          Alcotest.test_case "executor = counting engine on intermediates" `Quick
            test_executor_agrees_with_actual_intermediates;
          Test_util.to_alcotest prop_node_set_program_matches_oracles;
          Alcotest.test_case "rank = per-prefix oracle on staff" `Quick
            test_rank_matches_oracle_on_staff;
          Alcotest.test_case "best keeps cheapest prefixes in a rounding tie" `Quick
            test_best_rounding_tie;
          Alcotest.test_case "rank: catalog lookups of the node-set program" `Quick
            test_rank_catalog_lookups;
        ] );
    ]
