(* Tests for the exact-matching engine: stack-based structural join,
   nested-loop baseline, and the twig-counting dynamic program. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check
let qcheck = Test_util.to_alcotest (* seeded: see test_util.ml *)

let nodes doc tag = Xmlest.Document.nodes_with_tag doc tag

(* --- Structural join ----------------------------------------------------- *)

let test_join_fig1 () =
  let doc = Test_util.fig1_doc () in
  let count a d =
    Xmlest.Structural_join.count_pairs doc (nodes doc a) (nodes doc d)
  in
  (* Sec. 2's worked example: 3 faculty, 5 TA, real answer 2. *)
  check Alcotest.int "faculty//TA" 2 (count "faculty" "TA");
  check Alcotest.int "faculty//RA" 6 (count "faculty" "RA");
  check Alcotest.int "department//faculty" 3 (count "department" "faculty");
  check Alcotest.int "department//TA" 5 (count "department" "TA");
  check Alcotest.int "TA//faculty" 0 (count "TA" "faculty")

let test_join_child_axis () =
  let doc = Test_util.fig1_doc () in
  let count a d =
    Xmlest.Structural_join.count_pairs ~axis:`Child doc (nodes doc a) (nodes doc d)
  in
  check Alcotest.int "department/faculty" 3 (count "department" "faculty");
  check Alcotest.int "department/TA (none direct)" 0 (count "department" "TA")

let test_join_nested_tags () =
  let doc = Xmlest.Document.of_elem (Test_util.nested ~depth:3 ~fanout:2) in
  let sections = nodes doc "section" in
  check Alcotest.int "section//section" 10
    (Xmlest.Structural_join.count_pairs doc sections sections);
  check Alcotest.int "section/section" 6
    (Xmlest.Structural_join.count_pairs ~axis:`Child doc sections sections)

let test_join_empty_inputs () =
  let doc = Test_util.fig1_doc () in
  check Alcotest.int "empty ancestors" 0
    (Xmlest.Structural_join.count_pairs doc [||] (nodes doc "TA"));
  check Alcotest.int "empty descendants" 0
    (Xmlest.Structural_join.count_pairs doc (nodes doc "faculty") [||])

let prop_join_equals_brute_force =
  QCheck.Test.make ~count:200 ~name:"stack join = brute force (descendant)"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ())
    (fun (_, doc, t1, t2) ->
      let expected =
        Test_util.brute_force_pairs doc (Xmlest.Predicate.tag t1)
          (Xmlest.Predicate.tag t2) ~axis:`Descendant
      in
      Xmlest.Structural_join.count_pairs doc (nodes doc t1) (nodes doc t2)
      = expected)

let prop_join_child_equals_brute_force =
  QCheck.Test.make ~count:200 ~name:"stack join = brute force (child)"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ())
    (fun (_, doc, t1, t2) ->
      let expected =
        Test_util.brute_force_pairs doc (Xmlest.Predicate.tag t1)
          (Xmlest.Predicate.tag t2) ~axis:`Child
      in
      Xmlest.Structural_join.count_pairs ~axis:`Child doc (nodes doc t1)
        (nodes doc t2)
      = expected)

let prop_join_equals_nested_loop =
  QCheck.Test.make ~count:200 ~name:"stack join = nested loop"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:60 ())
    (fun (_, doc, t1, t2) ->
      Xmlest.Structural_join.count_pairs doc (nodes doc t1) (nodes doc t2)
      = Nested_loop.count_pairs doc (nodes doc t1) (nodes doc t2))

let prop_self_join_counts_nesting =
  QCheck.Test.make ~count:100 ~name:"self join = nesting pairs"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ())
    (fun (_, doc, t1, _) ->
      Xmlest.Structural_join.count_pairs doc (nodes doc t1) (nodes doc t1)
      = Test_util.nesting_pairs doc (nodes doc t1))

(* --- Twig counting -------------------------------------------------------- *)

let tagp = Xmlest.Predicate.tag

let test_twig_single_node () =
  let doc = Test_util.fig1_doc () in
  check Alcotest.int "single node = count" 5
    (Xmlest.Twig_count.count doc (Xmlest.Pattern.node (tagp "TA")))

let test_twig_pair_matches_join () =
  let doc = Test_util.fig1_doc () in
  check Alcotest.int "pair" 2
    (Xmlest.Twig_count.count doc (Xmlest.Pattern.twig (tagp "faculty") [ tagp "TA" ]))

let test_twig_branching () =
  let doc = Test_util.fig1_doc () in
  (* Fig. 2's query: faculty with both TA and RA below.  Only the third
     faculty qualifies: 2 TAs × 2 RAs = 4 mappings. *)
  let pat = Xmlest.Pattern.twig (tagp "faculty") [ tagp "TA"; tagp "RA" ] in
  check Alcotest.int "faculty[TA][RA]" 4 (Xmlest.Twig_count.count doc pat)

let test_twig_chain () =
  let doc = Test_util.fig1_doc () in
  let pat = Test_util.chain [ tagp "department"; tagp "faculty"; tagp "RA" ] in
  check Alcotest.int "dept//faculty//RA" 6 (Xmlest.Twig_count.count doc pat)

let test_twig_child_axis () =
  let doc = Xmlest.Document.of_elem (Test_util.nested ~depth:3 ~fanout:2) in
  let child_pat =
    Xmlest.Pattern.node
      ~edges:[ (Xmlest.Pattern.Child, Xmlest.Pattern.node (tagp "section")) ]
      (tagp "section")
  in
  check Alcotest.int "section/section" 6 (Xmlest.Twig_count.count doc child_pat)

let prop_twig_matches_brute_force =
  QCheck.Test.make ~count:100 ~name:"twig DP = brute force enumeration"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:25 ()) (int_bound 1000))
    (fun ((_, doc, t1, t2), seed) ->
      let rng = Xmlest.Splitmix.create seed in
      let axis () =
        if Xmlest.Splitmix.bool rng 0.3 then Xmlest.Pattern.Child
        else Xmlest.Pattern.Descendant
      in
      let t3 = Test_util.tag_pool.(Xmlest.Splitmix.int rng 5) in
      let pat =
        Xmlest.Pattern.node
          ~edges:
            [
              (axis (), Xmlest.Pattern.node (tagp t2));
              (axis (), Xmlest.Pattern.node (tagp t3));
            ]
          (tagp t1)
      in
      Xmlest.Twig_count.count doc pat = Test_util.brute_force_twig doc pat)

let prop_twig_pair_equals_join =
  QCheck.Test.make ~count:150 ~name:"2-node twig = structural join"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:60 ())
    (fun (_, doc, t1, t2) ->
      Xmlest.Twig_count.count doc (Xmlest.Pattern.twig (tagp t1) [ tagp t2 ])
      = Xmlest.Structural_join.count_pairs doc (nodes doc t1) (nodes doc t2))

let test_twig_on_dblp () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.02) in
  let pat = Xmlest.Pattern.twig (tagp "article") [ tagp "author" ] in
  let via_twig = Xmlest.Twig_count.count doc pat in
  let via_join =
    Xmlest.Structural_join.count_pairs doc (nodes doc "article") (nodes doc "author")
  in
  check Alcotest.int "engines agree on dblp" via_join via_twig;
  Alcotest.(check bool) "non-trivial" true (via_twig > 100)

(* The exact-count leg of the deep-chain checks: on 100,000 nested [n]
   elements over one leaf, every [n] is an ancestor of the leaf and of
   every [n] below it.  The counts are C(100000, 1) and C(100000, 2); the
   DP must neither recurse per level nor overflow its sums. *)
let test_twig_deep_chain () =
  let depth = 100_000 in
  let e = ref (Xmlest.Elem.make "leaf") in
  for _ = 1 to depth do
    e := Xmlest.Elem.make "n" ~children:[ !e ]
  done;
  let doc = Xmlest.Document.of_elem !e in
  let count q = Xmlest.Twig_count.count doc (Xmlest.Pattern_parser.pattern_exn q) in
  check Alcotest.int "//n//leaf" 100_000 (count "//n//leaf");
  check Alcotest.int "//n//n" 4_999_950_000 (count "//n//n")

(* --- Executor -------------------------------------------------------------- *)

(* Execute with the pattern's pre-order as the join order. *)
let matches doc pat =
  Xmlest.Executor.run doc pat ~order:(List.init (Xmlest.Pattern.size pat) Fun.id)

let test_executor_simple_pair () =
  let doc = Test_util.fig1_doc () in
  let pat = Xmlest.Pattern.twig (tagp "faculty") [ tagp "TA" ] in
  let result = matches doc pat in
  check Alcotest.int "two matches" 2 (List.length result.Xmlest.Executor.rows);
  check Alcotest.(list int) "columns" [ 0; 1 ] result.Xmlest.Executor.columns;
  List.iter
    (fun row ->
      check Alcotest.string "col0 faculty" "faculty" (Xmlest.Document.tag doc row.(0));
      check Alcotest.string "col1 TA" "TA" (Xmlest.Document.tag doc row.(1));
      Alcotest.(check bool) "edge holds" true
        (Xmlest.Document.is_ancestor doc ~anc:row.(0) ~desc:row.(1)))
    result.Xmlest.Executor.rows

let test_executor_branching () =
  let doc = Test_util.fig1_doc () in
  let pat = Xmlest.Pattern.twig (tagp "faculty") [ tagp "TA"; tagp "RA" ] in
  let result = matches doc pat in
  check Alcotest.int "four matches (Fig. 2)" 4 (List.length result.Xmlest.Executor.rows);
  (* all rows bind the same (third) faculty *)
  List.iter
    (fun row ->
      Alcotest.(check bool) "TA under faculty" true
        (Xmlest.Document.is_ancestor doc ~anc:row.(0) ~desc:row.(1));
      Alcotest.(check bool) "RA under faculty" true
        (Xmlest.Document.is_ancestor doc ~anc:row.(0) ~desc:row.(2)))
    result.Xmlest.Executor.rows

let test_executor_all_orders_agree () =
  (* Every valid join order of the same pattern must produce the same
     number of matches, equal to the counting engine's answer. *)
  let doc = Test_util.fig1_doc () in
  let pat =
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
  in
  let expected = Xmlest.Twig_count.count doc pat in
  (* enumerate valid orders by trying all permutations and skipping the
     ones the executor rejects *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l
  in
  let tried = ref 0 in
  List.iter
    (fun order ->
      match List.length (Xmlest.Executor.run doc pat ~order).Xmlest.Executor.rows with
      | c ->
        incr tried;
        check Alcotest.int
          (Printf.sprintf "order [%s]"
             (String.concat ";" (List.map string_of_int order)))
          expected c
      | exception Invalid_argument _ -> ())
    (permutations [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "some orders were valid" true (!tried >= 6)

let test_executor_child_axis () =
  let doc = Xmlest.Document.of_elem (Test_util.nested ~depth:3 ~fanout:2) in
  let pat =
    Xmlest.Pattern.node
      ~edges:[ (Xmlest.Pattern.Child, Xmlest.Pattern.node (tagp "section")) ]
      (tagp "section")
  in
  check Alcotest.int "section/section" 6
    (List.length (matches doc pat).Xmlest.Executor.rows)

let test_executor_intermediate_sizes () =
  let doc = Test_util.fig1_doc () in
  let pat = Test_util.chain [ tagp "department"; tagp "faculty"; tagp "RA" ] in
  let result = matches doc pat in
  check Alcotest.(list int) "intermediate sizes" [ 3; 6 ]
    result.Xmlest.Executor.intermediate_sizes

let test_executor_rejects_bad_orders () =
  let doc = Test_util.fig1_doc () in
  let pat = Xmlest.Pattern.twig (tagp "faculty") [ tagp "TA"; tagp "RA" ] in
  let bad order =
    match List.length (Xmlest.Executor.run doc pat ~order).Xmlest.Executor.rows with
    | _ -> Alcotest.failf "expected rejection"
    | exception Invalid_argument _ -> ()
  in
  bad [ 0; 1 ];
  (* not a permutation *)
  bad [ 0; 1; 1 ];
  bad [ 1; 2; 0 ] (* TA then RA: disconnected prefix *)

let prop_executor_matches_twig_count =
  QCheck.Test.make ~count:80 ~name:"executor count = counting engine"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:30 ()) (int_bound 1000))
    (fun ((_, doc, t1, t2), seed) ->
      let rng = Xmlest.Splitmix.create seed in
      let t3 = Test_util.tag_pool.(Xmlest.Splitmix.int rng 5) in
      let axis () =
        if Xmlest.Splitmix.bool rng 0.3 then Xmlest.Pattern.Child
        else Xmlest.Pattern.Descendant
      in
      let pat =
        Xmlest.Pattern.node
          ~edges:
            [
              (axis (), Xmlest.Pattern.node (tagp t2));
              (axis (), Xmlest.Pattern.node (tagp t3));
            ]
          (tagp t1)
      in
      List.length (matches doc pat).Xmlest.Executor.rows
      = Xmlest.Twig_count.count doc pat)

(* --- Axis evaluation --------------------------------------------------------- *)

let brute_axis doc context axis pred =
  let n = Xmlest.Document.size doc in
  let related v u =
    match axis with
    | Axis_eval.Self -> u = v
    | Axis_eval.Child -> Xmlest.Document.parent doc u = v
    | Axis_eval.Parent -> Xmlest.Document.parent doc v = u
    | Axis_eval.Descendant -> Xmlest.Document.is_ancestor doc ~anc:v ~desc:u
    | Axis_eval.Ancestor -> Xmlest.Document.is_ancestor doc ~anc:u ~desc:v
    | Axis_eval.Following ->
      Xmlest.Document.start_pos doc u > Xmlest.Document.end_pos doc v
    | Axis_eval.Preceding ->
      Xmlest.Document.end_pos doc u < Xmlest.Document.start_pos doc v
  in
  let out = ref [] in
  for u = n - 1 downto 0 do
    if
      Xmlest.Predicate.eval pred doc u
      && List.exists (fun v -> related v u) context
    then out := u :: !out
  done;
  !out

let all_axes =
  [
    Axis_eval.Self; Axis_eval.Child; Axis_eval.Parent;
    Axis_eval.Descendant; Axis_eval.Ancestor;
    Axis_eval.Following; Axis_eval.Preceding;
  ]

let test_axis_fig1 () =
  let doc = Test_util.fig1_doc () in
  let faculties =
    Array.to_list (Xmlest.Document.nodes_with_tag doc "faculty")
  in
  let tas = Axis_eval.step doc faculties Axis_eval.Descendant (tagp "TA") in
  check Alcotest.int "distinct TAs under faculties" 2 (List.length tas);
  let parents =
    Axis_eval.step doc faculties Axis_eval.Parent Xmlest.Predicate.True
  in
  check Alcotest.int "shared parent deduped" 1 (List.length parents);
  let following =
    Axis_eval.step doc [ List.hd faculties ] Axis_eval.Following
      (tagp "TA")
  in
  check Alcotest.int "all 5 TAs follow the first faculty" 5 (List.length following)

let test_axis_eval_path () =
  let doc = Test_util.fig1_doc () in
  let result =
    Axis_eval.eval doc
      [
        (Axis_eval.Descendant, tagp "faculty");
        (Axis_eval.Child, tagp "RA");
      ]
  in
  check Alcotest.int "faculty/RA" 6 (List.length result)

let prop_axis_matches_brute_force =
  QCheck.Test.make ~count:100 ~name:"axis step = brute force (all axes)"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:30 ()) (int_bound 1000))
    (fun ((_, doc, t1, t2), seed) ->
      let rng = Xmlest.Splitmix.create seed in
      (* random context: nodes of tag t1 plus a random extra node *)
      let context =
        Array.to_list (Xmlest.Document.nodes_with_tag doc t1)
        @ [ Xmlest.Splitmix.int rng (Xmlest.Document.size doc) ]
        |> List.sort_uniq compare
      in
      let pred = tagp t2 in
      List.for_all
        (fun axis ->
          Axis_eval.step doc context axis pred
          = brute_axis doc context axis pred)
        all_axes)

let test_axis_empty_context () =
  let doc = Test_util.fig1_doc () in
  List.iter
    (fun axis ->
      check Alcotest.(list int) "empty in, empty out" []
        (Axis_eval.step doc [] axis Xmlest.Predicate.True))
    all_axes

let prop_count_following_matches_brute_force =
  QCheck.Test.make ~count:150 ~name:"count_following = brute force"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:40 ())
    (fun (_, doc, t1, t2) ->
      let before = Xmlest.Document.nodes_with_tag doc t1 in
      let after = Xmlest.Document.nodes_with_tag doc t2 in
      let brute =
        Array.fold_left
          (fun acc b ->
            Array.fold_left
              (fun acc a ->
                if Xmlest.Document.end_pos doc b < Xmlest.Document.start_pos doc a
                then acc + 1
                else acc)
              acc after)
          0 before
      in
      Xmlest.Structural_join.count_following doc before after = brute)

let () =
  Alcotest.run "engine"
    [
      ( "structural_join",
        [
          Alcotest.test_case "fig1 joins" `Quick test_join_fig1;
          Alcotest.test_case "child axis" `Quick test_join_child_axis;
          Alcotest.test_case "nested tags" `Quick test_join_nested_tags;
          Alcotest.test_case "empty inputs" `Quick test_join_empty_inputs;
          qcheck prop_join_equals_brute_force;
          qcheck prop_join_child_equals_brute_force;
          qcheck prop_count_following_matches_brute_force;
          qcheck prop_join_equals_nested_loop;
          qcheck prop_self_join_counts_nesting;
        ] );
      ( "twig_count",
        [
          Alcotest.test_case "single node" `Quick test_twig_single_node;
          Alcotest.test_case "pair matches join" `Quick test_twig_pair_matches_join;
          Alcotest.test_case "branching twig (Fig. 2)" `Quick test_twig_branching;
          Alcotest.test_case "chain" `Quick test_twig_chain;
          Alcotest.test_case "child axis" `Quick test_twig_child_axis;
          Alcotest.test_case "agrees with join on dblp" `Quick test_twig_on_dblp;
          Alcotest.test_case "deep chain (100k levels)" `Quick test_twig_deep_chain;
          qcheck prop_twig_matches_brute_force;
          qcheck prop_twig_pair_equals_join;
        ] );
      ( "executor",
        [
          Alcotest.test_case "simple pair" `Quick test_executor_simple_pair;
          Alcotest.test_case "branching twig" `Quick test_executor_branching;
          Alcotest.test_case "all orders agree" `Quick test_executor_all_orders_agree;
          Alcotest.test_case "child axis" `Quick test_executor_child_axis;
          Alcotest.test_case "intermediate sizes" `Quick
            test_executor_intermediate_sizes;
          Alcotest.test_case "rejects bad orders" `Quick
            test_executor_rejects_bad_orders;
          qcheck prop_executor_matches_twig_count;
        ] );
      ( "axis_eval",
        [
          Alcotest.test_case "fig1 steps" `Quick test_axis_fig1;
          Alcotest.test_case "path evaluation" `Quick test_axis_eval_path;
          Alcotest.test_case "empty context" `Quick test_axis_empty_context;
          qcheck prop_axis_matches_brute_force;
        ] );
    ]
