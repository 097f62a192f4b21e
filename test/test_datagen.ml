(* Tests for the data-generation substrate: PRNG, distributions, DTD
   model/parser/generator, and the four data-set generators. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check
let qcheck = Test_util.to_alcotest (* seeded: see test_util.ml *)

(* --- Splitmix ---------------------------------------------------------- *)

let test_splitmix_deterministic () =
  let a = Xmlest.Splitmix.create 7 and b = Xmlest.Splitmix.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Xmlest.Splitmix.int a max_int)
      (Xmlest.Splitmix.int b max_int)
  done

let test_splitmix_seed_sensitivity () =
  let a = Xmlest.Splitmix.create 1 and b = Xmlest.Splitmix.create 2 in
  Alcotest.(check bool)
    "different seeds differ" false
    (Xmlest.Splitmix.int a max_int = Xmlest.Splitmix.int b max_int)

let test_splitmix_bounds () =
  let rng = Xmlest.Splitmix.create 11 in
  for _ = 1 to 1000 do
    let v = Xmlest.Splitmix.int rng 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Xmlest.Splitmix.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5);
    let k = Xmlest.Splitmix.int_in rng 5 9 in
    Alcotest.(check bool) "int_in in range" true (k >= 5 && k <= 9)
  done

let test_splitmix_uniformity () =
  let rng = Xmlest.Splitmix.create 3 in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Xmlest.Splitmix.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun k c ->
      if abs (c - (n / 10)) > n / 50 then Alcotest.failf "bucket %d skewed: %d" k c)
    buckets

let test_splitmix_bernoulli () =
  let rng = Xmlest.Splitmix.create 5 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Xmlest.Splitmix.bool rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p close to 0.3" true (Float.abs (p -. 0.3) < 0.02)

let test_splitmix_geometric_mean () =
  let rng = Xmlest.Splitmix.create 9 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Xmlest.Splitmix.geometric rng 2.0
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool)
    "geometric mean near 2.0" true
    (Float.abs (mean -. 2.0) < 0.15)

let test_splitmix_weighted () =
  let rng = Xmlest.Splitmix.create 13 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 10_000 do
    let x = Xmlest.Splitmix.weighted rng [ (1.0, "a"); (3.0, "b"); (0.0, "c") ] in
    Hashtbl.replace counts x (1 + try Hashtbl.find counts x with Not_found -> 0)
  done;
  Alcotest.(check bool) "c never drawn" false (Hashtbl.mem counts "c");
  let a = float_of_int (Hashtbl.find counts "a") in
  let b = float_of_int (Hashtbl.find counts "b") in
  Alcotest.(check bool) "ratio near 1:3" true (Float.abs ((b /. a) -. 3.0) < 0.4)

let test_splitmix_shuffle_permutes () =
  let rng = Xmlest.Splitmix.create 21 in
  let a = Array.init 50 Fun.id in
  Xmlest.Splitmix.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- Distributions ------------------------------------------------------ *)

let test_poisson_mean () =
  let rng = Xmlest.Splitmix.create 19 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Xmlest.Distributions.poisson rng 3.0
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.1)

(* --- DTD model and parser ---------------------------------------------- *)

let staff_dtd () = Xmlest.Staff_gen.dtd ()

let test_dtd_parse_staff () =
  let dtd = staff_dtd () in
  check
    Alcotest.(list string)
    "element names"
    [ "department"; "email"; "employee"; "manager"; "name" ]
    (Xmlest.Dtd.reachable dtd "manager")

let test_dtd_recursion () =
  let dtd = staff_dtd () in
  Alcotest.(check bool) "manager recursive" true (Dtd_check.is_recursive dtd "manager");
  Alcotest.(check bool)
    "department recursive" true
    (Dtd_check.is_recursive dtd "department");
  Alcotest.(check bool)
    "employee not recursive" false
    (Dtd_check.is_recursive dtd "employee");
  Alcotest.(check bool) "name not recursive" false (Dtd_check.is_recursive dtd "name")

let test_dtd_reachable () =
  let dtd = staff_dtd () in
  check
    Alcotest.(list string)
    "reachable from employee" [ "email"; "employee"; "name" ]
    (Xmlest.Dtd.reachable dtd "employee");
  check Alcotest.int "reachable from manager" 5
    (List.length (Xmlest.Dtd.reachable dtd "manager"))

let test_dtd_parse_errors () =
  let bad s =
    match Xmlest.Dtd_parser.parse_exn s with
    | _ -> Alcotest.failf "expected DTD error for %S" s
    | exception Failure _ -> ()
  in
  bad "";
  bad "<!ELEMENT a (b)>";
  bad "<!ELEMENT a (#PCDATA)> <!ELEMENT a (#PCDATA)>";
  bad "<!ELEMENT a (b,|c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"

let test_dtd_parse_skips_other_decls () =
  let dtd =
    Xmlest.Dtd_parser.parse_exn
      "<!-- a comment --><!ATTLIST x y CDATA #IMPLIED>\n\
       <!ELEMENT a (b*)>\n\
       <!ELEMENT b (#PCDATA)>"
  in
  check Alcotest.(list string) "names" [ "a"; "b" ] (Xmlest.Dtd.reachable dtd "a")

let test_dtd_validate_accepts () =
  let dtd = staff_dtd () in
  let e = Xmlest.Elem.make in
  let name = Xmlest.Elem.leaf "name" "n" in
  let doc =
    e "manager"
      ~children:
        [
          name;
          e "employee" ~children:[ name ];
          e "department"
            ~children:
              [ name; e "employee" ~children:[ name; Xmlest.Elem.leaf "email" "x" ] ];
        ]
  in
  match Dtd_check.validate dtd doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "expected valid: %s" m

let test_dtd_validate_rejects () =
  let dtd = staff_dtd () in
  let e = Xmlest.Elem.make in
  let name = Xmlest.Elem.leaf "name" "n" in
  let reject doc reason =
    match Dtd_check.validate dtd doc with
    | Ok () -> Alcotest.failf "expected invalid: %s" reason
    | Error _ -> ()
  in
  reject (e "manager" ~children:[ name ]) "manager needs a body";
  reject (e "department" ~children:[ name ]) "department needs employee+";
  reject (e "boss" ~children:[ name ]) "boss undeclared";
  reject
    (e "manager" ~text:"oops" ~children:[ name; e "employee" ~children:[ name ] ])
    "manager cannot carry text"

(* --- DTD-driven generation --------------------------------------------- *)

let test_dtd_gen_valid () =
  let dtd = staff_dtd () in
  for seed = 1 to 20 do
    let config = { Xmlest.Dtd_gen.default_config with seed } in
    let doc = Xmlest.Dtd_gen.generate ~config dtd ~root:"manager" in
    match Dtd_check.validate dtd doc with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d generated invalid doc: %s" seed m
  done

let test_dtd_gen_deterministic () =
  let dtd = staff_dtd () in
  let config = { Xmlest.Dtd_gen.default_config with seed = 77 } in
  let a = Xmlest.Dtd_gen.generate ~config dtd ~root:"manager" in
  let b = Xmlest.Dtd_gen.generate ~config dtd ~root:"manager" in
  Alcotest.(check bool) "same seed, same doc" true (Test_util.elem_equal a b)

let test_dtd_gen_depth_capped () =
  let dtd = staff_dtd () in
  let config = { Xmlest.Dtd_gen.default_config with seed = 5; max_depth = 4 } in
  let doc = Xmlest.Dtd_gen.generate ~config dtd ~root:"manager" in
  Alcotest.(check bool)
    "depth within cap (+leaf levels)" true
    (Test_util.elem_depth doc <= 6)

let test_dtd_gen_unknown_root () =
  let dtd = staff_dtd () in
  Alcotest.check_raises "unknown root"
    (Invalid_argument "Dtd_gen.generate: nobody is not declared") (fun () ->
      ignore (Xmlest.Dtd_gen.generate dtd ~root:"nobody"))

(* --- Data sets ---------------------------------------------------------- *)

let test_staff_shape () =
  let e = Xmlest.Staff_gen.generate () in
  (match Dtd_check.validate (staff_dtd ()) e with
  | Ok () -> ()
  | Error m -> Alcotest.failf "staff invalid: %s" m);
  let doc = Xmlest.Document.of_elem e in
  let c tag = Test_util.tag_count doc tag in
  (* Table 3 magnitudes (generous bands: the branching process is noisy). *)
  Alcotest.(check bool) "manager band" true (c "manager" >= 15 && c "manager" <= 90);
  Alcotest.(check bool)
    "department band" true
    (c "department" >= 130 && c "department" <= 550);
  Alcotest.(check bool)
    "employee band" true
    (c "employee" >= 230 && c "employee" <= 950);
  (* Table 3 overlap properties. *)
  let nodes tag = Xmlest.Document.nodes_with_tag doc tag in
  Alcotest.(check bool)
    "manager overlaps" true
    (Xmlest.Interval_ops.has_nesting doc (nodes "manager"));
  Alcotest.(check bool)
    "department overlaps" true
    (Xmlest.Interval_ops.has_nesting doc (nodes "department"));
  Alcotest.(check bool)
    "employee no-overlap" false
    (Xmlest.Interval_ops.has_nesting doc (nodes "employee"));
  Alcotest.(check bool)
    "name no-overlap" false
    (Xmlest.Interval_ops.has_nesting doc (nodes "name"))

let test_dblp_shape () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  let c tag = float_of_int (Test_util.tag_count doc tag) in
  Alcotest.(check bool)
    "authors ~2.1 per record" true
    (c "author" /. c "title" > 1.7 && c "author" /. c "title" < 2.5);
  Alcotest.(check bool)
    "articles ~37% of records" true
    (c "article" /. c "title" > 0.30 && c "article" /. c "title" < 0.45);
  Alcotest.(check bool) "books rare" true (c "book" /. c "article" < 0.12);
  Alcotest.(check bool) "urls near records" true (c "url" /. c "title" > 0.9);
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (tag ^ " no-overlap") false
        (Xmlest.Interval_ops.has_nesting doc
           (Xmlest.Document.nodes_with_tag doc tag)))
    [ "article"; "author"; "book"; "cdrom"; "cite"; "title"; "url"; "year" ]

let test_dblp_content_predicates () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  let conf =
    Test_util.pred_count doc (Xmlest.Predicate.text_prefix ~tag:"cite" "conf")
  in
  let journal =
    Test_util.pred_count doc (Xmlest.Predicate.text_prefix ~tag:"cite" "journals")
  in
  let cites = Test_util.tag_count doc "cite" in
  Alcotest.(check bool)
    "conf cites ~41%" true
    (let r = float_of_int conf /. float_of_int cites in
     r > 0.3 && r < 0.5);
  Alcotest.(check bool)
    "journal cites ~24%" true
    (let r = float_of_int journal /. float_of_int cites in
     r > 0.15 && r < 0.35);
  let year_in_decade d =
    Xmlest.Predicate.any_of
      (List.init 10 (fun k ->
           Xmlest.Predicate.text_eq ~tag:"year" (string_of_int (d + k))))
  in
  let y80 = Test_util.pred_count doc (year_in_decade 1980) in
  let years = Test_util.tag_count doc "year" in
  Alcotest.(check bool)
    "1980s ~65%" true
    (let r = float_of_int y80 /. float_of_int years in
     r > 0.55 && r < 0.75)

let test_dblp_deterministic () =
  let a = Xmlest.Dblp_gen.generate_scaled 0.01 in
  let b = Xmlest.Dblp_gen.generate_scaled 0.01 in
  Alcotest.(check bool) "same seed same doc" true (Test_util.elem_equal a b)

let test_xmark_shape () =
  let doc = Xmlest.Document.of_elem (Xmlest.Xmark_gen.generate ~scale:0.2 ()) in
  Alcotest.(check bool) "has items" true (Test_util.tag_count doc "item" > 50);
  Alcotest.(check bool) "has people" true (Test_util.tag_count doc "person" > 20);
  Alcotest.(check bool)
    "parlist overlaps (or absent)" true
    (Test_util.tag_count doc "parlist" = 0
    || Xmlest.Interval_ops.has_nesting doc
         (Xmlest.Document.nodes_with_tag doc "parlist"))

let test_treebank_shape () =
  let doc = Xmlest.Document.of_elem (Xmlest.Treebank_gen.generate ()) in
  Alcotest.(check bool) "substantial" true (Xmlest.Document.size doc > 3000);
  (* every phrase tag must self-nest (the overlap property) *)
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " self-nests") true
        (Xmlest.Interval_ops.has_nesting doc (Xmlest.Document.nodes_with_tag doc tag)))
    [ "S"; "NP"; "VP" ];
  (* deep recursion is present *)
  let max_level = ref 0 in
  Xmlest.Document.iter doc (fun v -> max_level := max !max_level (Xmlest.Document.level doc v));
  Alcotest.(check bool) "deep chains" true (!max_level >= 12);
  (* deterministic *)
  Alcotest.(check bool) "deterministic" true
    (Test_util.elem_equal (Xmlest.Treebank_gen.generate ()) (Xmlest.Treebank_gen.generate ()))

let test_shakespeare_shape () =
  let doc = Xmlest.Document.of_elem (Xmlest.Shakespeare_gen.generate ()) in
  check Alcotest.int "five acts" 5 (Test_util.tag_count doc "ACT");
  Alcotest.(check bool) "has scenes" true (Test_util.tag_count doc "SCENE" >= 10);
  Alcotest.(check bool)
    "lines dominate" true
    (Test_util.tag_count doc "LINE" > Test_util.tag_count doc "SPEECH")

let prop_dtd_gen_always_valid =
  QCheck.Test.make ~count:30 ~name:"dtd_gen output validates (random seeds)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let dtd = staff_dtd () in
      let config = { Xmlest.Dtd_gen.default_config with seed } in
      let doc = Xmlest.Dtd_gen.generate ~config dtd ~root:"department" in
      match Dtd_check.validate dtd doc with Ok () -> true | Error _ -> false)

let () =
  Alcotest.run "datagen"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
          Alcotest.test_case "uniformity" `Quick test_splitmix_uniformity;
          Alcotest.test_case "bernoulli" `Quick test_splitmix_bernoulli;
          Alcotest.test_case "geometric mean" `Quick test_splitmix_geometric_mean;
          Alcotest.test_case "weighted choice" `Quick test_splitmix_weighted;
          Alcotest.test_case "shuffle permutes" `Quick test_splitmix_shuffle_permutes;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
        ] );
      ( "dtd",
        [
          Alcotest.test_case "parse staff DTD" `Quick test_dtd_parse_staff;
          Alcotest.test_case "recursion detection" `Quick test_dtd_recursion;
          Alcotest.test_case "reachability" `Quick test_dtd_reachable;
          Alcotest.test_case "parse errors" `Quick test_dtd_parse_errors;
          Alcotest.test_case "skips non-ELEMENT decls" `Quick
            test_dtd_parse_skips_other_decls;
          Alcotest.test_case "validate accepts" `Quick test_dtd_validate_accepts;
          Alcotest.test_case "validate rejects" `Quick test_dtd_validate_rejects;
        ] );
      ( "dtd_gen",
        [
          Alcotest.test_case "output validates" `Quick test_dtd_gen_valid;
          Alcotest.test_case "deterministic" `Quick test_dtd_gen_deterministic;
          Alcotest.test_case "depth capped" `Quick test_dtd_gen_depth_capped;
          Alcotest.test_case "unknown root rejected" `Quick test_dtd_gen_unknown_root;
          qcheck prop_dtd_gen_always_valid;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "staff shape (Table 3)" `Quick test_staff_shape;
          Alcotest.test_case "dblp shape (Table 1)" `Quick test_dblp_shape;
          Alcotest.test_case "dblp content predicates" `Quick
            test_dblp_content_predicates;
          Alcotest.test_case "dblp deterministic" `Quick test_dblp_deterministic;
          Alcotest.test_case "xmark shape" `Quick test_xmark_shape;
          Alcotest.test_case "shakespeare shape" `Quick test_shakespeare_shape;
          Alcotest.test_case "treebank shape" `Quick test_treebank_shape;
        ] );
    ]
