(* Tests for predicates, twig patterns and the query parser. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check
let qcheck = Test_util.to_alcotest (* seeded: see test_util.ml *)

let sample () =
  Xmlest.Document.of_elem
    (Xmlest.Xml_parser.parse_string_exn
       "<lib><book year='2001'><title>Query Processing</title>\
        <cite>conf/vldb/1</cite><cite>journals/tods/2</cite></book>\
        <book year='1999'><title>Trees</title><cite>conf/icde/3</cite></book>\
        <paper><title>Query Sizes</title></paper></lib>")

(* --- Predicate --------------------------------------------------------- *)

let test_pred_tag () =
  let doc = sample () in
  check Alcotest.int "books" 2 (Test_util.pred_count doc (Xmlest.Predicate.tag "book"));
  check Alcotest.int "cites" 3 (Test_util.pred_count doc (Xmlest.Predicate.tag "cite"));
  check Alcotest.int "true matches all" (Xmlest.Document.size doc)
    (Test_util.pred_count doc Xmlest.Predicate.True)

let test_pred_text () =
  let doc = sample () in
  let open Xmlest.Predicate in
  check Alcotest.int "prefix conf" 2 (Test_util.pred_count doc (text_prefix ~tag:"cite" "conf"));
  check Alcotest.int "prefix journals" 1 (Test_util.pred_count doc (text_prefix ~tag:"cite" "journals"));
  check Alcotest.int "exact title" 1 (Test_util.pred_count doc (text_eq ~tag:"title" "Trees"));
  check Alcotest.int "suffix" 1 (Test_util.pred_count doc (And (Tag "cite", Text_suffix "/3")));
  check Alcotest.int "contains" 2 (Test_util.pred_count doc (And (Tag "title", Text_contains "Query")))

let test_pred_attr_level () =
  let doc = sample () in
  let open Xmlest.Predicate in
  check Alcotest.int "attr year" 1 (Test_util.pred_count doc (Attr_eq ("year", "2001")));
  check Alcotest.int "level 1" 3 (Test_util.pred_count doc (Level_eq 1));
  check Alcotest.int "level 0" 1 (Test_util.pred_count doc (Level_eq 0))

let test_pred_boolean () =
  let doc = sample () in
  let open Xmlest.Predicate in
  let conf = text_prefix ~tag:"cite" "conf" in
  let journal = text_prefix ~tag:"cite" "journals" in
  check Alcotest.int "or" 3 (Test_util.pred_count doc (Or (conf, journal)));
  check Alcotest.int "and-false" 0 (Test_util.pred_count doc (And (conf, journal)));
  check Alcotest.int "not" (Xmlest.Document.size doc - 3)
    (Test_util.pred_count doc (Not (Tag "cite")));
  check Alcotest.int "any_of" 3 (Test_util.pred_count doc (any_of [ conf; journal ]))

let test_pred_name_stable () =
  let open Xmlest.Predicate in
  check Alcotest.string "tag name" "tag=cite" (name (Tag "cite"));
  check Alcotest.string "compound name" "tag=cite&prefix=conf"
    (name (text_prefix ~tag:"cite" "conf"));
  Alcotest.(check bool)
    "equal predicates share names" true
    (name (And (Tag "a", Text_eq "x")) = name (And (Tag "a", Text_eq "x")))

let test_pred_matching_sorted () =
  let doc = sample () in
  let nodes =
    Xmlest.Predicate.matching_nodes doc
      (Xmlest.Predicate.And (Xmlest.Predicate.Tag "cite", Xmlest.Predicate.Text_prefix "conf"))
  in
  check Alcotest.int "count" 2 (Array.length nodes);
  for k = 1 to Array.length nodes - 1 do
    Alcotest.(check bool)
      "document order" true
      (Xmlest.Document.start_pos doc nodes.(k - 1)
      < Xmlest.Document.start_pos doc nodes.(k))
  done

(* Every node gets one of three texts, so the text equalities below
   match some of a tag's nodes and not others.  The mixed-tag [Or] pins
   no tag and scans; the same-tag [any_of] and [And (Tag t1, Or ...)]
   pin [t1] and are evaluated on its nodes only. *)
let prop_matching_nodes_equals_scan =
  QCheck.Test.make ~count:100 ~name:"matching_nodes = full scan"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ())
    (fun (elem, _, t1, t2) ->
      let open Xmlest.Predicate in
      let k = ref 0 in
      let rec with_texts (e : Xmlest.Elem.t) =
        incr k;
        let text = [| "x"; "y"; "z" |].(!k mod 3) in
        { e with text; children = List.map with_texts e.children }
      in
      let doc = Xmlest.Document.of_elem (with_texts elem) in
      let agrees pred =
        let scanned = ref [] in
        for v = Xmlest.Document.size doc - 1 downto 0 do
          if eval pred doc v then scanned := v :: !scanned
        done;
        Array.to_list (matching_nodes doc pred) = !scanned
      in
      List.for_all agrees
        [
          Or (Tag t1, Tag t2);
          any_of [ text_eq ~tag:t1 "x"; text_eq ~tag:t1 "y" ];
          And (Tag t1, Or (Text_eq "x", Text_eq "z"));
        ])

let test_pred_syntax_roundtrip_fixed () =
  let open Xmlest.Predicate in
  let cases =
    [
      True;
      Tag "faculty";
      text_prefix ~tag:"cite" "conf";
      And (Tag "ci\"te", Or (Text_prefix "con\\f", Not (Level_eq 3)));
      Attr_eq ("key", "a \"quoted\" value");
      any_of [ text_eq ~tag:"year" "1990"; text_eq ~tag:"year" "1991" ];
    ]
  in
  List.iter
    (fun p ->
      match of_syntax (to_syntax p) with
      | Ok q ->
        Alcotest.(check bool) ("roundtrip " ^ to_syntax p) true (equal p q)
      | Error e -> Alcotest.failf "parse failed for %s: %s" (to_syntax p) e)
    cases

let test_pred_syntax_errors () =
  let open Xmlest.Predicate in
  let bad s =
    match of_syntax s with
    | Ok _ -> Alcotest.failf "expected syntax error for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "(tag)";
  bad "(tag \"a\") extra";
  bad "(unknown \"a\")";
  bad "(and (tag \"a\"))";
  bad "(level \"x\")";
  bad "(tag \"unterminated)"

let prop_pred_syntax_roundtrip =
  QCheck.Test.make ~count:200 ~name:"predicate syntax roundtrip (random)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Xmlest.Splitmix.create seed in
      let strings = [| "a"; "conf/x"; "with space"; "q\"uote"; "back\\slash"; "" |] in
      let rec gen depth =
        let leaf () =
          match Xmlest.Splitmix.int rng 7 with
          | 0 -> Xmlest.Predicate.True
          | 1 -> Xmlest.Predicate.Tag (Xmlest.Splitmix.choose rng strings)
          | 2 -> Xmlest.Predicate.Text_eq (Xmlest.Splitmix.choose rng strings)
          | 3 -> Xmlest.Predicate.Text_prefix (Xmlest.Splitmix.choose rng strings)
          | 4 -> Xmlest.Predicate.Text_suffix (Xmlest.Splitmix.choose rng strings)
          | 5 ->
            Xmlest.Predicate.Attr_eq
              (Xmlest.Splitmix.choose rng strings, Xmlest.Splitmix.choose rng strings)
          | _ -> Xmlest.Predicate.Level_eq (Xmlest.Splitmix.int rng 20)
        in
        if depth >= 3 then leaf ()
        else
          match Xmlest.Splitmix.int rng 5 with
          | 0 -> Xmlest.Predicate.And (gen (depth + 1), gen (depth + 1))
          | 1 -> Xmlest.Predicate.Or (gen (depth + 1), gen (depth + 1))
          | 2 -> Xmlest.Predicate.Not (gen (depth + 1))
          | _ -> leaf ()
      in
      let p = gen 0 in
      match Xmlest.Predicate.of_syntax (Xmlest.Predicate.to_syntax p) with
      | Ok q -> Xmlest.Predicate.equal p q
      | Error _ -> false)

(* --- Substring (KMP) ---------------------------------------------------- *)

let test_substring_edge_cases () =
  let open Xmlest.Predicate in
  let has sub s = Substring.matches (Substring.make sub) s in
  Alcotest.(check bool) "empty pattern, empty string" true (has "" "");
  Alcotest.(check bool) "empty pattern" true (has "" "abc");
  Alcotest.(check bool) "empty string, non-empty pattern" false (has "a" "");
  Alcotest.(check bool) "pattern longer than string" false (has "abcd" "abc");
  Alcotest.(check bool) "overlapping occurrences" true (has "aa" "aaa");
  Alcotest.(check bool) "periodic pattern" true (has "abab" "aabababb");
  Alcotest.(check bool) "whole string" true (has "abc" "abc");
  Alcotest.(check bool) "match at end" true (has "cde" "abcde");
  Alcotest.(check bool)
    "near miss with repeated prefix" false (has "aab" "aaacaaac")

let prop_substring_matches_naive =
  QCheck.Test.make ~count:500 ~name:"KMP agrees with naive substring search"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Xmlest.Splitmix.create seed in
      (* small alphabet so matches and near-misses are common *)
      let random_string n =
        String.init
          (Xmlest.Splitmix.int rng (n + 1))
          (fun _ -> Char.chr (Char.code 'a' + Xmlest.Splitmix.int rng 3))
      in
      let hay = random_string 16 and needle = random_string 5 in
      Xmlest.Predicate.Substring.matches
        (Xmlest.Predicate.Substring.make needle)
        hay
      = Test_util.contains_substring hay needle)

(* --- Compilation and dispatch ------------------------------------------- *)

let test_compile_on_sample () =
  let doc = sample () in
  let open Xmlest.Predicate in
  let cases =
    [
      True;
      Tag "book";
      Tag "zzz";
      Text_eq "Trees";
      Text_prefix "conf";
      Text_suffix "/3";
      Text_contains "Query";
      Text_contains "";
      Attr_eq ("year", "2001");
      Attr_eq ("year", "1900");
      Level_eq 1;
      And (Tag "cite", Text_prefix "conf");
      Or (Tag "book", Tag "paper");
      Not (Tag "cite");
      text_eq ~tag:"title" "Trees";
      any_of [ Tag "book"; Tag "paper"; Tag "zzz" ];
    ]
  in
  List.iter
    (fun p ->
      let c = compile doc p in
      for v = 0 to Xmlest.Document.size doc - 1 do
        Alcotest.(check bool)
          (name p ^ " @ node " ^ string_of_int v)
          (eval p doc v) (c v)
      done)
    cases

let prop_compile_equals_eval =
  QCheck.Test.make ~count:300 ~name:"compile = eval (random docs, predicates)"
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:40 ()) (int_bound 1_000_000))
    (fun (elem, seed) ->
      let doc = Xmlest.Document.of_elem elem in
      let rng = Xmlest.Splitmix.create seed in
      let strings = [| "a"; "b"; "conf"; "x"; "" |] in
      let tags = [| "a"; "b"; "c"; "nosuchtag" |] in
      let rec gen depth =
        let leaf () =
          match Xmlest.Splitmix.int rng 8 with
          | 0 -> Xmlest.Predicate.True
          | 1 -> Xmlest.Predicate.Tag (Xmlest.Splitmix.choose rng tags)
          | 2 -> Xmlest.Predicate.Text_eq (Xmlest.Splitmix.choose rng strings)
          | 3 -> Xmlest.Predicate.Text_prefix (Xmlest.Splitmix.choose rng strings)
          | 4 -> Xmlest.Predicate.Text_suffix (Xmlest.Splitmix.choose rng strings)
          | 5 -> Xmlest.Predicate.Text_contains (Xmlest.Splitmix.choose rng strings)
          | 6 ->
            Xmlest.Predicate.Attr_eq
              ( Xmlest.Splitmix.choose rng strings,
                Xmlest.Splitmix.choose rng strings )
          | _ -> Xmlest.Predicate.Level_eq (Xmlest.Splitmix.int rng 5)
        in
        if depth >= 3 then leaf ()
        else
          match Xmlest.Splitmix.int rng 5 with
          | 0 -> Xmlest.Predicate.And (gen (depth + 1), gen (depth + 1))
          | 1 -> Xmlest.Predicate.Or (gen (depth + 1), gen (depth + 1))
          | 2 -> Xmlest.Predicate.Not (gen (depth + 1))
          | _ -> leaf ()
      in
      let p = gen 0 in
      let c = Xmlest.Predicate.compile doc p in
      let ok = ref true in
      for v = 0 to Xmlest.Document.size doc - 1 do
        if
          c v <> Xmlest.Predicate.eval p doc v
        then ok := false
      done;
      !ok)

let test_dispatch_matches_eval () =
  let doc = sample () in
  let open Xmlest.Predicate in
  let preds =
    [
      Tag "book";
      Tag "zzz";
      (* target `Nothing: never evaluated *)
      text_prefix ~tag:"cite" "conf";
      Text_contains "Query";
      True;
      (* title's text-equality family: one value in two predicates, and
         twice in one *)
      text_eq ~tag:"title" "Trees";
      any_of [ text_eq ~tag:"title" "Trees"; text_eq ~tag:"title" "Query Sizes" ];
      any_of [ text_eq ~tag:"title" "Trees"; text_eq ~tag:"title" "Trees" ];
      And (Text_eq "Query Processing", Tag "title");
      (* a family on an absent tag *)
      text_eq ~tag:"zzz" "Trees";
      And (Tag "cite", Or (Text_eq "conf/vldb/1", Text_eq "conf/icde/3"));
      (* a mixed-tag disjunction stays unpinned *)
      Or (text_eq ~tag:"title" "Trees", text_eq ~tag:"cite" "conf/icde/3");
      (* pinned to cite, but a prefix is no family member *)
      any_of [ text_eq ~tag:"cite" "conf/vldb/1"; text_prefix ~tag:"cite" "journals" ];
    ]
  in
  let arr = Array.of_list preds in
  let expected v =
    List.filter (fun k -> eval arr.(k) doc v) (List.init (Array.length arr) Fun.id)
  in
  let d = dispatch doc preds in
  let detached = dispatch_detached preds in
  for v = 0 to Xmlest.Document.size doc - 1 do
    let got = ref [] and named = ref [] in
    dispatch_node d doc v ~f:(fun k -> got := k :: !got);
    (* by name, as the streamed build dispatches: a node whose
       predicates read no text is given text no predicate could match *)
    let id = tag_id detached (Xmlest.Document.tag doc v) in
    dispatch_id detached ~tag:id ~attrs:(Xmlest.Document.attrs doc v)
      ~text:(if needs_text detached id then Xmlest.Document.text doc v else "\000unread")
      ~level:(Xmlest.Document.level doc v)
      ~f:(fun k -> named := k :: !named);
    check
      Alcotest.(list int)
      ("matches @ node " ^ string_of_int v)
      (expected v)
      (List.sort Stdlib.compare !got);
    check
      Alcotest.(list int)
      ("named matches @ node " ^ string_of_int v)
      (expected v)
      (List.sort Stdlib.compare !named)
  done;
  (* one decision per relevant (node, predicate) pair, family members
     included: the count a closure per predicate would make *)
  let relevant =
    List.fold_left
      (fun acc p ->
        acc
        +
        match target doc p with
        | `Any -> Xmlest.Document.size doc
        | `Tag id ->
          let n = ref 0 in
          Xmlest.Document.iter doc (fun v ->
              if Int.equal (Xmlest.Document.tag_id doc v) id then incr n);
          !n
        | `Nothing -> 0)
      0 preds
  in
  check Alcotest.int "evaluations counted" relevant (dispatch_evals d);
  check Alcotest.int "detached evaluations counted" relevant (dispatch_evals detached);
  (* the `Nothing predicates and the off-tag pinned ones cost nothing *)
  Alcotest.(check bool)
    "dispatch skips irrelevant predicates" true
    (dispatch_evals d < Xmlest.Document.size doc * List.length preds)

(* The id path reads a node's text only where a predicate decided there
   reads it: a pinned one, the tag's family or an unpinned one. *)
let test_dispatch_needs_text () =
  let doc = sample () in
  let open Xmlest.Predicate in
  let textless = [ Tag "book"; Not (Tag "paper"); Attr_eq ("year", "1999"); Level_eq 2 ] in
  let pinned_text = [ text_prefix ~tag:"cite" "conf"; text_eq ~tag:"title" "Trees" ] in
  let needs preds name =
    let d = dispatch_detached preds in
    needs_text d (tag_id d name)
  in
  List.iter
    (fun (preds, expected) ->
      List.iter
        (fun (name, want) -> check Alcotest.bool ("needs text: " ^ name) want (needs preds name))
        (List.combine [ "lib"; "book"; "title"; "cite"; "paper"; "nosuch" ] expected))
    [
      (textless, [ false; false; false; false; false; false ]);
      (textless @ pinned_text, [ false; false; true; true; false; false ]);
      (textless @ pinned_text @ [ Text_contains "Q" ], [ true; true; true; true; true; true ]);
    ];
  (* unknown names share id -1; named tags get distinct ids *)
  let d = dispatch_detached (textless @ pinned_text) in
  check Alcotest.int "unknown tag" (-1) (tag_id d "nosuch");
  Alcotest.(check bool) "distinct ids" true (tag_id d "book" <> tag_id d "paper");
  (* and decides as eval when unread text is withheld *)
  let preds = textless @ pinned_text in
  let arr = Array.of_list preds in
  for v = 0 to Xmlest.Document.size doc - 1 do
    let id = tag_id d (Xmlest.Document.tag doc v) in
    let got = ref [] in
    dispatch_id d ~tag:id ~attrs:(Xmlest.Document.attrs doc v)
      ~text:(if needs_text d id then Xmlest.Document.text doc v else "\000unread")
      ~level:(Xmlest.Document.level doc v)
      ~f:(fun k -> got := k :: !got);
    check
      Alcotest.(list int)
      ("matches @ node " ^ string_of_int v)
      (List.filter (fun k -> eval arr.(k) doc v) (List.init (Array.length arr) Fun.id))
      (List.sort Stdlib.compare !got)
  done

let test_target () =
  let doc = sample () in
  let open Xmlest.Predicate in
  let tid t =
    match Xmlest.Document.lookup_tag_id doc t with
    | Some id -> id
    | None -> Alcotest.failf "tag %s missing" t
  in
  Alcotest.(check bool) "tag" true (target doc (Tag "book") = `Tag (tid "book"));
  Alcotest.(check bool)
    "pinned conjunction" true
    (target doc (text_prefix ~tag:"cite" "conf") = `Tag (tid "cite"));
  Alcotest.(check bool) "absent tag" true (target doc (Tag "zzz") = `Nothing);
  Alcotest.(check bool) "true" true (target doc True = `Any);
  Alcotest.(check bool)
    "disjunction unpinned" true
    (target doc (Or (Tag "book", Tag "paper")) = `Any);
  Alcotest.(check bool)
    "same-tag any_of pinned" true
    (target doc (any_of [ text_eq ~tag:"title" "Trees"; text_eq ~tag:"title" "Query Sizes" ])
    = `Tag (tid "title"));
  Alcotest.(check bool)
    "same-tag any_of over an absent tag" true
    (target doc (any_of [ text_eq ~tag:"zzz" "a"; Tag "zzz" ]) = `Nothing)

(* --- Pattern ------------------------------------------------------------ *)

let test_pattern_builders () =
  let open Xmlest.Pattern in
  let p = Test_util.chain [ Xmlest.Predicate.tag "a"; Xmlest.Predicate.tag "b"; Xmlest.Predicate.tag "c" ] in
  check Alcotest.int "chain size" 3 (size p);
  check Alcotest.int "chain edges" 2 (edge_count p);
  let t = twig (Xmlest.Predicate.tag "f") [ Xmlest.Predicate.tag "x"; Xmlest.Predicate.tag "y" ] in
  check Alcotest.int "twig size" 3 (size t);
  check Alcotest.int "twig children" 2 (List.length t.edges)

let test_pattern_predicates_preorder () =
  let p =
    Xmlest.Pattern.twig (Xmlest.Predicate.tag "f")
      [ Xmlest.Predicate.tag "x"; Xmlest.Predicate.tag "y" ]
  in
  check
    Alcotest.(list string)
    "pre-order preds" [ "tag=f"; "tag=x"; "tag=y" ]
    (List.map Xmlest.Predicate.name (Xmlest.Pattern.predicates p))

let test_pattern_to_string () =
  let p =
    Xmlest.Pattern.node
      ~edges:
        [
          (Xmlest.Pattern.Descendant, Xmlest.Pattern.node (Xmlest.Predicate.tag "TA"));
          (Xmlest.Pattern.Descendant, Xmlest.Pattern.node (Xmlest.Predicate.tag "RA"));
        ]
      (Xmlest.Predicate.tag "faculty")
  in
  check Alcotest.string "render" "//faculty[.//TA][.//RA]"
    (Xmlest.Pattern.to_string p)

(* --- Pattern parser ------------------------------------------------------ *)

let parse = Xmlest.Pattern_parser.parse_exn

let test_parse_simple_path () =
  let q = parse "//article//author" in
  check Alcotest.bool "anchor descendant" true
    (q.Xmlest.Pattern_parser.anchor = Xmlest.Pattern.Descendant);
  let root = q.Xmlest.Pattern_parser.root in
  check Alcotest.string "root pred" "tag=article" (Xmlest.Predicate.name root.Xmlest.Pattern.pred);
  (match root.Xmlest.Pattern.edges with
  | [ (Xmlest.Pattern.Descendant, child) ] ->
    check Alcotest.string "child" "tag=author"
      (Xmlest.Predicate.name child.Xmlest.Pattern.pred)
  | _ -> Alcotest.fail "expected one descendant edge")

let test_parse_child_axis () =
  let q = parse "/dblp/article" in
  check Alcotest.bool "anchor child" true
    (q.Xmlest.Pattern_parser.anchor = Xmlest.Pattern.Child);
  match q.Xmlest.Pattern_parser.root.Xmlest.Pattern.edges with
  | [ (Xmlest.Pattern.Child, _) ] -> ()
  | _ -> Alcotest.fail "expected child edge"

let test_parse_branches () =
  let q = parse "//faculty[.//TA][.//RA]//name" in
  let root = q.Xmlest.Pattern_parser.root in
  check Alcotest.int "three edges" 3 (List.length root.Xmlest.Pattern.edges);
  check Alcotest.int "pattern size" 4 (Xmlest.Pattern.size root)

let test_parse_content_filters () =
  let q = parse "//cite[starts-with(text(),'conf')]" in
  let pred = q.Xmlest.Pattern_parser.root.Xmlest.Pattern.pred in
  check Alcotest.string "compound" "tag=cite&prefix=conf" (Xmlest.Predicate.name pred);
  let q2 = parse "//year[text()='1984']" in
  check Alcotest.string "text eq" "tag=year&text=1984"
    (Xmlest.Predicate.name q2.Xmlest.Pattern_parser.root.Xmlest.Pattern.pred);
  let q3 = parse "//item[@id='7']" in
  check Alcotest.string "attr" "tag=item&@id=7"
    (Xmlest.Predicate.name q3.Xmlest.Pattern_parser.root.Xmlest.Pattern.pred);
  let q4 = parse "//title[contains(text(),\"Query\")]" in
  check Alcotest.string "contains" "tag=title&contains=Query"
    (Xmlest.Predicate.name q4.Xmlest.Pattern_parser.root.Xmlest.Pattern.pred)

let test_parse_star () =
  let q = parse "//*//b" in
  check Alcotest.string "star is True" "true"
    (Xmlest.Predicate.name q.Xmlest.Pattern_parser.root.Xmlest.Pattern.pred)

let test_parse_whitespace () =
  let q = parse "  //a [ .//b ] / c " in
  check Alcotest.int "size" 3 (Xmlest.Pattern.size q.Xmlest.Pattern_parser.root)

let test_parse_errors () =
  let bad s =
    match Xmlest.Pattern_parser.parse s with
    | Ok _ -> Alcotest.failf "expected parse failure for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "article";
  bad "//";
  bad "//a[";
  bad "//a[]";
  bad "//a]";
  bad "//a[text()=unquoted]";
  bad "//a trailing"

let test_parse_matches_exact_engine () =
  let doc = sample () in
  let count s = Xmlest.Twig_count.count doc (parse s).Xmlest.Pattern_parser.root in
  check Alcotest.int "//book//cite" 3 (count "//book//cite");
  check Alcotest.int "//book[.//cite]//title" 3 (count "//book[.//cite]//title");
  check Alcotest.int "//lib//title" 3 (count "//lib//title");
  check Alcotest.int "/lib/book" 2 (count "/lib/book");
  check Alcotest.int "//book/cite" 3 (count "//book/cite");
  check Alcotest.int "//cite[starts-with(text(),'conf')]" 2
    (count "//cite[starts-with(text(),'conf')]")

let prop_parse_print_roundtrip =
  (* to_string of a parsed descendant-only pattern parses back to an equal
     pattern. *)
  QCheck.Test.make ~count:50 ~name:"pattern print/parse roundtrip"
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Xmlest.Splitmix.create seed in
      let tags = [| "a"; "b"; "c"; "d" |] in
      let rec gen depth =
        let pred = Xmlest.Predicate.tag (Xmlest.Splitmix.choose rng tags) in
        if depth >= 3 then Xmlest.Pattern.node pred
        else begin
          let n_children = Xmlest.Splitmix.int rng 3 in
          let edges =
            List.init n_children (fun _ ->
                (Xmlest.Pattern.Descendant, gen (depth + 1)))
          in
          Xmlest.Pattern.node ~edges pred
        end
      in
      let p = gen 0 in
      let s = Xmlest.Pattern.to_string p in
      let q = Xmlest.Pattern_parser.pattern_exn s in
      Xmlest.Pattern.equal p q)

(* --- Pattern_check ------------------------------------------------------ *)

let diag_rules ds = List.map (fun d -> d.Xmlest.Pattern_check.rule) ds
let unsat = Xmlest.Pattern_check.unsatisfiable
let pcheck = Xmlest.Pattern_check.check

let test_check_contradictions () =
  let open Xmlest.Predicate in
  let diags = pcheck (Xmlest.Pattern.node (And (Tag "a", Tag "b"))) in
  check Alcotest.(list string) "two tags" [ "contradiction" ] (diag_rules diags);
  check Alcotest.bool "two tags unsat" true (unsat diags);
  List.iter
    (fun pred ->
      check Alcotest.bool (name pred) true
        (unsat (pcheck (Xmlest.Pattern.node pred))))
    [
      And (Text_eq "x", Text_eq "y");
      And (Attr_eq ("k", "1"), Attr_eq ("k", "2"));
      And (Tag "a", Not (Tag "a"));
      And (Text_eq "conf/vldb", Text_prefix "journals");
      And (Text_eq "alpha", Text_suffix "beta");
      And (Text_eq "alpha", Text_contains "zzz");
      And (Text_prefix "conf", Text_prefix "journals");
      And (Level_eq 1, Level_eq 2);
      Level_eq (-1);
      Not True;
    ];
  List.iter
    (fun pred ->
      check
        Alcotest.(list string)
        ("clean: " ^ name pred)
        [] (diag_rules (pcheck (Xmlest.Pattern.node pred))))
    [
      And (Tag "a", Text_eq "x");
      And (Text_eq "conf/vldb", Text_prefix "conf");
      And (Tag "a", Not (Tag "b"));
      True;
    ]

let test_check_disjunctions () =
  let open Xmlest.Predicate in
  let dead = And (Tag "a", Tag "b") in
  check Alcotest.bool "all branches dead" true
    (unsat (pcheck (Xmlest.Pattern.node (Or (dead, Level_eq (-1))))));
  check Alcotest.bool "one live branch" false
    (unsat (pcheck (Xmlest.Pattern.node (Or (dead, Tag "c")))))

let test_check_level_edges () =
  let open Xmlest.Predicate in
  let leaf = Xmlest.Pattern.node in
  let node = Xmlest.Pattern.node in
  let child p = (Xmlest.Pattern.Child, p) in
  let desc p = (Xmlest.Pattern.Descendant, p) in
  check Alcotest.bool "level 0 below an edge" true
    (unsat (pcheck (node ~edges:[ child (leaf (Level_eq 0)) ] (Tag "a"))));
  check Alcotest.bool "child level gap" true
    (unsat
       (pcheck
          (node
             ~edges:[ child (leaf (Level_eq 3)) ]
             (And (Tag "a", Level_eq 1)))));
  check Alcotest.bool "descendant not below" true
    (unsat
       (pcheck
          (node
             ~edges:[ desc (leaf (Level_eq 1)) ]
             (And (Tag "a", Level_eq 2)))));
  check
    Alcotest.(list string)
    "consistent levels pass" []
    (diag_rules
       (pcheck
          (node
             ~edges:[ child (leaf (Level_eq 2)) ]
             (And (Tag "a", Level_eq 1)))))

let test_check_unknown_tag () =
  let p = (parse "//book//zzz").Xmlest.Pattern_parser.root in
  let exhaustive = pcheck ~known_tags:[ "book"; "cite" ] p in
  check Alcotest.(list string) "absent tag" [ "unknown-tag" ] (diag_rules exhaustive);
  check Alcotest.bool "absent tag is a proof" true (unsat exhaustive);
  check Alcotest.int "pre-order node id" 1
    (List.hd exhaustive).Xmlest.Pattern_check.node;
  let partial_schema =
    pcheck ~known_tags:[ "book" ] ~tags_exhaustive:false p
  in
  check Alcotest.(list string) "outside schema" [ "unknown-tag" ]
    (diag_rules partial_schema);
  check Alcotest.bool "only a warning" false (unsat partial_schema);
  check Alcotest.(list string) "no schema, no diagnostics" []
    (diag_rules (pcheck p))

let test_check_duplicate_edges () =
  let dup = (parse "//faculty[.//TA][.//TA]").Xmlest.Pattern_parser.root in
  let diags = pcheck dup in
  check Alcotest.(list string) "duplicate" [ "duplicate-edge" ] (diag_rules diags);
  check Alcotest.bool "duplicate is satisfiable" false (unsat diags);
  check Alcotest.(list string) "distinct branches pass" []
    (diag_rules (pcheck (parse "//faculty[.//TA][.//RA]").Xmlest.Pattern_parser.root))

let test_check_rendering () =
  let open Xmlest.Predicate in
  let diags = pcheck (Xmlest.Pattern.node (And (Tag "a", Tag "b"))) in
  check Alcotest.bool "0-proof spelled out" true
    (Test_util.contains_substring
       (Xmlest.Pattern_check.to_string diags)
       "answer size is 0")

let () =
  Alcotest.run "query"
    [
      ( "predicate",
        [
          Alcotest.test_case "tag predicates" `Quick test_pred_tag;
          Alcotest.test_case "text predicates" `Quick test_pred_text;
          Alcotest.test_case "attr and level" `Quick test_pred_attr_level;
          Alcotest.test_case "boolean combinations" `Quick test_pred_boolean;
          Alcotest.test_case "stable names" `Quick test_pred_name_stable;
          Alcotest.test_case "matching_nodes sorted" `Quick test_pred_matching_sorted;
          qcheck prop_matching_nodes_equals_scan;
          Alcotest.test_case "syntax roundtrip" `Quick test_pred_syntax_roundtrip_fixed;
          Alcotest.test_case "syntax errors" `Quick test_pred_syntax_errors;
          qcheck prop_pred_syntax_roundtrip;
        ] );
      ( "substring",
        [
          Alcotest.test_case "KMP edge cases" `Quick test_substring_edge_cases;
          qcheck prop_substring_matches_naive;
        ] );
      ( "compile",
        [
          Alcotest.test_case "compile = eval on sample" `Quick
            test_compile_on_sample;
          qcheck prop_compile_equals_eval;
          Alcotest.test_case "dispatch = eval" `Quick test_dispatch_matches_eval;
          Alcotest.test_case "dispatch reads text only where needed" `Quick test_dispatch_needs_text;
          Alcotest.test_case "target classification" `Quick test_target;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "builders" `Quick test_pattern_builders;
          Alcotest.test_case "pre-order predicates" `Quick
            test_pattern_predicates_preorder;
          Alcotest.test_case "rendering" `Quick test_pattern_to_string;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple path" `Quick test_parse_simple_path;
          Alcotest.test_case "child axis" `Quick test_parse_child_axis;
          Alcotest.test_case "branches" `Quick test_parse_branches;
          Alcotest.test_case "content filters" `Quick test_parse_content_filters;
          Alcotest.test_case "star" `Quick test_parse_star;
          Alcotest.test_case "whitespace" `Quick test_parse_whitespace;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "agrees with exact engine" `Quick
            test_parse_matches_exact_engine;
          qcheck prop_parse_print_roundtrip;
        ] );
      ( "pattern_check",
        [
          Alcotest.test_case "contradictory conjunctions" `Quick
            test_check_contradictions;
          Alcotest.test_case "disjunctions" `Quick test_check_disjunctions;
          Alcotest.test_case "level edges" `Quick test_check_level_edges;
          Alcotest.test_case "unknown tags" `Quick test_check_unknown_tag;
          Alcotest.test_case "duplicate edges" `Quick test_check_duplicate_edges;
          Alcotest.test_case "rendering" `Quick test_check_rendering;
        ] );
    ]
