(* End-to-end tests of the Summary catalog: build, lookup, estimation,
   storage accounting — the surface TIMBER's optimizer would consume. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check
let tagp = Xmlest.Predicate.tag

let staff_summary ?(grid_size = 10) () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let preds =
    [ tagp "manager"; tagp "department"; tagp "employee"; tagp "email"; tagp "name" ]
  in
  (doc, Xmlest.Summary.build ~grid_size doc preds)

let test_build_detects_overlap () =
  let _, s = staff_summary () in
  Alcotest.(check bool) "manager overlaps" false
    (Xmlest.Summary.has_no_overlap s (tagp "manager"));
  Alcotest.(check bool) "department overlaps" false
    (Xmlest.Summary.has_no_overlap s (tagp "department"));
  Alcotest.(check bool) "employee no-overlap" true
    (Xmlest.Summary.has_no_overlap s (tagp "employee"));
  Alcotest.(check bool) "email no-overlap" true
    (Xmlest.Summary.has_no_overlap s (tagp "email"))

let test_coverage_built_exactly_for_no_overlap () =
  let _, s = staff_summary () in
  Alcotest.(check bool) "employee has coverage" true
    (Xmlest.Summary.coverage s (tagp "employee") <> None);
  Alcotest.(check bool) "manager has no coverage" true
    (Xmlest.Summary.coverage s (tagp "manager") = None);
  Alcotest.(check bool) "unknown predicate has none" true
    (Xmlest.Summary.coverage s (tagp "zzz") = None)

let test_node_counts_exact () =
  let doc, s = staff_summary () in
  List.iter
    (fun tag ->
      check (Alcotest.float 1e-9) (tag ^ " count")
        (float_of_int (Test_util.tag_count doc tag))
        (Xmlest.Summary.node_count s (tagp tag)))
    [ "manager"; "department"; "employee"; "email"; "name" ]

let test_histogram_on_demand_and_cached () =
  let doc, s = staff_summary () in
  (* 'name' prefix predicate is not in the catalog: built on demand. *)
  let p = Xmlest.Predicate.text_prefix ~tag:"name" "A" in
  let h1 = Xmlest.Summary.histogram s p in
  check (Alcotest.float 1e-9) "on-demand exact"
    (float_of_int (Test_util.pred_count doc p))
    (Xmlest.Position_histogram.total h1)

let test_compound_histogram_via_catalog () =
  let _, s = staff_summary () in
  let either = Xmlest.Predicate.Or (tagp "email", tagp "name") in
  let h = Xmlest.Summary.histogram s either in
  let expected =
    Xmlest.Summary.node_count s (tagp "email")
    +. Xmlest.Summary.node_count s (tagp "name")
  in
  (* email and name never share a grid cell population overlap of
     meaningfulness; independence keeps the estimate within 5%. *)
  Alcotest.(check bool) "compound close to sum" true
    (Float.abs (Xmlest.Position_histogram.total h -. expected) /. expected < 0.05)

let test_estimate_string_parses () =
  let doc, s = staff_summary () in
  let est = Xmlest.Summary.estimate_string s "//department//email" in
  let real =
    float_of_int
      (Xmlest.Twig_count.count doc
         (Xmlest.Pattern.twig (tagp "department") [ tagp "email" ]))
  in
  Alcotest.(check bool) "estimate in the right ballpark" true
    (est > real /. 6.0 && est < real *. 6.0);
  Alcotest.check_raises "bad query"
    (Failure "query parse error at offset 2: expected a name") (fun () ->
      ignore (Xmlest.Summary.estimate_string s "//"))

let test_storage_budget () =
  (* The paper reports ~0.7% of the data set size for all DBLP histograms.
     Check our summary stays below 2% of a rough document footprint. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.1) in
  let preds =
    List.map tagp [ "article"; "author"; "book"; "cdrom"; "cite"; "title"; "url"; "year" ]
  in
  let s = Xmlest.Summary.build ~grid_size:10 ~with_levels:false doc preds in
  let bytes = Xmlest.Summary.storage_bytes s in
  let doc_footprint = 20 * Xmlest.Document.size doc in
  Alcotest.(check bool)
    (Printf.sprintf "summary %dB <= 2%% of ~%dB" bytes doc_footprint)
    true
    (float_of_int bytes <= 0.02 *. float_of_int doc_footprint);
  Alcotest.(check bool) "non-trivial" true (bytes > 100)

let test_equidepth_summary () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let preds = List.map tagp [ "department"; "email" ] in
  let s = Xmlest.Summary.build ~grid_size:10 ~grid_kind:`Equidepth doc preds in
  Alcotest.(check bool) "grid is non-uniform" false
    (Xmlest.Grid.is_uniform (Xmlest.Summary.grid s));
  (* exact node counts are bucketization-independent *)
  check (Alcotest.float 1e-9) "counts exact"
    (float_of_int (Test_util.tag_count doc "email"))
    (Xmlest.Summary.node_count s (tagp "email"));
  let est = Xmlest.Summary.estimate_string s "//department//email" in
  let real =
    float_of_int
      (Xmlest.Twig_count.count doc
         (Xmlest.Pattern.twig (tagp "department") [ tagp "email" ]))
  in
  Alcotest.(check bool) "estimate sane" true
    (Float.is_finite est && est > real /. 6.0 && est < real *. 6.0)

let test_grid_size_respected () =
  let doc = Test_util.fig1_doc () in
  let s = Xmlest.Summary.build ~grid_size:7 doc [ tagp "TA" ] in
  check Alcotest.int "grid size" 7 (Xmlest.Summary.grid s).Xmlest.Grid.size

(* --- Persistence -------------------------------------------------------- *)

let test_save_load_roundtrip () =
  let _, s = staff_summary () in
  let s' = Test_util.reopened s in
  Alcotest.(check bool) "no document attached" true
    (Xmlest.Summary.document s' = None);
  Alcotest.(check bool) "no stats attached" true
    (Xmlest.Summary.stats s' = None);
  check Alcotest.string "canonical print survives the store"
    (Xmlest.Summary.to_string s)
    (Xmlest.Summary.to_string s');
  (* identical estimates for pair and twig queries *)
  List.iter
    (fun q ->
      check (Alcotest.float 0.0) ("same estimate for " ^ q)
        (Xmlest.Summary.estimate_string s q)
        (Xmlest.Summary.estimate_string s' q))
    [
      "//manager//department"; "//department//email"; "//employee//name";
      "//manager[.//department][.//employee]"; "//department/email";
    ];
  check Alcotest.int "same storage accounting"
    (Xmlest.Summary.storage_bytes s)
    (Xmlest.Summary.storage_bytes s')

let test_save_load_file () =
  let _, s = staff_summary () in
  (* any file name works: nothing dispatches on a '.xsum' suffix *)
  let path = Filename.temp_file "xmlest" ".summary" in
  Xmlest.Summary.save_store s path;
  (match Xmlest.Summary.load_store path with
  | Ok s' ->
    check (Alcotest.float 0.0) "file roundtrip estimate"
      (Xmlest.Summary.estimate_string s "//manager//employee")
      (Xmlest.Summary.estimate_string s' "//manager//employee")
  | Error e -> Alcotest.failf "file load failed: %s" e);
  Sys.remove path

let test_loaded_summary_unknown_predicate () =
  let _, s = staff_summary () in
  let s' = Test_util.reopened s in
  (* catalog predicates work *)
  check (Alcotest.float 1e-9) "known predicate"
    (Xmlest.Summary.node_count s (tagp "email"))
    (Xmlest.Summary.node_count s' (tagp "email"));
  (* unknown leaf must raise, not silently return nonsense *)
  try
    ignore (Xmlest.Summary.histogram s' (tagp "nonexistent"));
    Alcotest.fail "expected Failure for unknown predicate"
  with Failure _ -> ()

let test_end_to_end_dblp_table2_shape () =
  (* The qualitative claim of Table 2: naive >> pH-join >> no-overlap ~ real. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  let preds = List.map tagp [ "article"; "author" ] in
  let s = Xmlest.Summary.build ~grid_size:10 doc preds in
  let real =
    float_of_int
      (Xmlest.Structural_join.count_pairs doc
         (Xmlest.Document.nodes_with_tag doc "article")
         (Xmlest.Document.nodes_with_tag doc "author"))
  in
  let naive =
    Xmlest.Summary.node_count s (tagp "article")
    *. Xmlest.Summary.node_count s (tagp "author")
  in
  let overlap_est =
    Xmlest.Summary.estimate
      ~options:{ Xmlest.Twig_estimator.default_options with use_no_overlap = false }
      s
      (Xmlest.Pattern.twig (tagp "article") [ tagp "author" ])
  in
  let no_overlap_est =
    Xmlest.Summary.estimate s (Xmlest.Pattern.twig (tagp "article") [ tagp "author" ])
  in
  Alcotest.(check bool) "naive >> overlap estimate" true (naive > 10.0 *. overlap_est);
  Alcotest.(check bool) "overlap estimate >> naive/1000" true
    (overlap_est < naive /. 100.0);
  Alcotest.(check bool) "no-overlap within 25% of real" true
    (Float.abs (no_overlap_est -. real) /. real < 0.25);
  Alcotest.(check bool) "no-overlap beats overlap" true
    (Float.abs (no_overlap_est -. real) < Float.abs (overlap_est -. real))

let test_scale_integration () =
  (* A mid-size end-to-end pass: ~55k-node DBLP sample, full catalog,
     theorems hold, estimates agree with truth within the usual bands. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.3) in
  Alcotest.(check bool) "substantial" true (Xmlest.Document.size doc > 40_000);
  let preds =
    List.map tagp [ "article"; "author"; "book"; "cdrom"; "cite"; "title"; "url"; "year" ]
  in
  let s = Xmlest.Summary.build ~grid_size:100 ~with_levels:false doc preds in
  (* Theorem 1 at g = 100 across the whole catalog *)
  List.iter
    (fun p ->
      let cells =
        Xmlest.Position_histogram.nonzero_cells (Xmlest.Summary.histogram s p)
      in
      Alcotest.(check bool)
        (Xmlest.Predicate.name p ^ " cells O(g)")
        true (cells <= 400))
    preds;
  (* headline estimate within 30% *)
  let est = Xmlest.Summary.estimate_string s "//article//author" in
  let real =
    float_of_int
      (Xmlest.Structural_join.count_pairs doc
         (Xmlest.Document.nodes_with_tag doc "article")
         (Xmlest.Document.nodes_with_tag doc "author"))
  in
  Alcotest.(check bool) "article//author within 30%" true
    (Float.abs (est -. real) /. real < 0.3);
  (* persistence at scale *)
  let s' = Test_util.reopened s in
  check (Alcotest.float 0.0) "roundtrip estimate" est
    (Xmlest.Summary.estimate_string s' "//article//author")

let test_multiple_datasets_smoke () =
  (* Build summaries over each data set and estimate a couple of queries;
     everything must stay finite and non-negative. *)
  let datasets =
    [
      ("xmark", Xmlest.Xmark_gen.generate ~scale:0.1 (), [ "item"; "description"; "text" ]);
      ("shakespeare", Xmlest.Shakespeare_gen.generate ~acts:2 (), [ "ACT"; "SCENE"; "LINE" ]);
    ]
  in
  List.iter
    (fun (name, elem, tags) ->
      let doc = Xmlest.Document.of_elem elem in
      let s = Xmlest.Summary.build ~grid_size:10 doc (List.map tagp tags) in
      List.iter
        (fun anc ->
          List.iter
            (fun desc ->
              if anc <> desc then begin
                let est =
                  Xmlest.Summary.estimate s
                    (Xmlest.Pattern.twig (tagp anc) [ tagp desc ])
                in
                if not (Float.is_finite est) || est < 0.0 then
                  Alcotest.failf "%s: bad estimate for %s//%s" name anc desc
              end)
            tags)
        tags)
    datasets

(* --- Advisor ---------------------------------------------------------------- *)

let test_advisor_on_dblp () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  let preds = Xmlest.Advisor.suggest doc in
  let names = List.map Xmlest.Predicate.name preds in
  (* all tags present *)
  List.iter
    (fun tag ->
      Alcotest.(check bool) ("tag " ^ tag) true (List.mem ("tag=" ^ tag) names))
    [ "article"; "author"; "cite"; "year" ];
  (* frequent year values become text_eq predicates *)
  Alcotest.(check bool) "some year value predicate" true
    (List.exists
       (fun n -> String.length n > 13 && String.sub n 0 13 = "tag=year&text")
       names);
  (* cite keys are individually rare but share prefixes *)
  Alcotest.(check bool) "cite prefix predicate" true
    (List.exists
       (fun n -> String.length n > 15 && String.sub n 0 15 = "tag=cite&prefix")
       names);
  (* the suggested set feeds Summary.build directly *)
  let summary = Xmlest.Summary.build ~grid_size:10 ~with_levels:false doc preds in
  Alcotest.(check bool) "summary builds" true
    (Xmlest.Summary.storage_bytes summary > 0)

(* The defaults documented in advisor.mli. *)
let advisor_defaults =
  {
    Xmlest.Advisor.value_threshold = 0.02;
    prefix_threshold = 0.10;
    prefix_length = 8;
    max_per_tag = 20;
  }

let is_tag_predicate = function Xmlest.Predicate.Tag _ -> true | _ -> false

let test_advisor_respects_caps () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.02) in
  let config = { advisor_defaults with max_per_tag = 3 } in
  let preds = Xmlest.Advisor.suggest ~config doc in
  List.iter
    (fun tag ->
      let content =
        List.filter
          (fun p ->
            (not (is_tag_predicate p))
            && Option.equal String.equal (Xmlest.Predicate.tag_of p) (Some tag))
          preds
      in
      Alcotest.(check bool) (tag ^ " capped") true (List.length content <= 3))
    (Xmlest.Document.distinct_tags doc)

let test_advisor_thresholds () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.02) in
  (* an unreachable threshold removes all content predicates *)
  let strict = { advisor_defaults with value_threshold = 1.1; prefix_threshold = 1.1 } in
  Alcotest.(check bool) "nothing passes threshold 1.1" true
    (List.for_all is_tag_predicate (Xmlest.Advisor.suggest ~config:strict doc));
  (* lowering thresholds yields strictly more predicates *)
  let loose =
    { advisor_defaults with value_threshold = 0.001; max_per_tag = 1000 }
  in
  Alcotest.(check bool) "lower threshold, more predicates" true
    (List.length (Xmlest.Advisor.suggest ~config:loose doc)
    >= List.length (Xmlest.Advisor.suggest doc))

let test_advisor_textless_tags () =
  let doc = Test_util.fig1_doc () in
  (* fig1 has no text content at all: only tag predicates suggested *)
  let preds = Xmlest.Advisor.suggest doc in
  Alcotest.(check bool) "only tag predicates" true (List.for_all is_tag_predicate preds)

(* --- Fused construction vs the per-predicate oracle ----------------------- *)

let qcheck = Test_util.to_alcotest (* seeded: see test_util.ml *)

let summaries_identical a b =
  String.equal (Xmlest.Summary.to_string a) (Xmlest.Summary.to_string b)

let prop_fused_equals_legacy =
  QCheck.Test.make ~count:80
    ~name:"fused build = legacy build (bit-identical, random docs)"
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:50 ()) (int_bound 3))
    (fun (elem, cfg) ->
      let doc = Xmlest.Document.of_elem elem in
      let grid_size = min 8 (Xmlest.Document.max_pos doc + 1) in
      let grid_kind = if cfg land 1 = 0 then `Uniform else `Equidepth in
      let with_levels = cfg land 2 = 0 in
      let preds =
        [
          tagp "a";
          tagp "b";
          Xmlest.Predicate.Or (tagp "c", tagp "d");
          Xmlest.Predicate.And (tagp "a", Xmlest.Predicate.Level_eq 1);
          tagp "a";
          (* duplicate: both paths must dedup identically *)
          tagp "nosuchtag";
        ]
      in
      Legacy_build.agrees
        (Legacy_build.build ~grid_size ~grid_kind ~with_levels doc preds)
        (Xmlest.Summary.build ~grid_size ~grid_kind ~with_levels doc preds))

let test_fused_equals_legacy_datasets () =
  let cases =
    [
      ("fig1", Test_util.fig1 (), [ tagp "faculty"; tagp "RA"; tagp "TA" ]);
      ( "staff",
        Xmlest.Staff_gen.generate (),
        [ tagp "manager"; tagp "employee"; tagp "name" ] );
      ( "dblp",
        Xmlest.Dblp_gen.generate_scaled 0.05,
        [
          tagp "article";
          tagp "author";
          Xmlest.Predicate.text_prefix ~tag:"cite" "conf";
          Xmlest.Predicate.any_of
            (List.init 10 (fun k ->
                 Xmlest.Predicate.text_eq ~tag:"year" (string_of_int (1990 + k))));
        ] );
    ]
  in
  List.iter
    (fun (name, elem, preds) ->
      let doc = Xmlest.Document.of_elem elem in
      List.iter
        (fun grid_kind ->
          let fused = Xmlest.Summary.build ~grid_kind doc preds in
          let legacy = Legacy_build.build ~grid_kind doc preds in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" name
               (match grid_kind with `Uniform -> "uniform" | _ -> "equidepth"))
            true
            (Legacy_build.agrees legacy fused))
        [ `Uniform; `Equidepth ])
    cases

(* --- Streamed (out-of-core) vs in-memory construction ------------------ *)

(* The SAX-fed build never materializes a [Document.t]; serializing the
   random tree and re-parsing it event-by-event must nevertheless assign
   the same interval positions and land every count in the same cell, so
   the summary is [to_string]-bit-identical for both grid kinds.  The
   indented writer output also exercises whitespace-only text runs.  Grids
   of one and two buckets make the replay's pending coverage segments
   outgrow a grid of cells, so compaction across sibling subtrees runs. *)
let prop_stream_equals_build =
  QCheck.Test.make ~count:100
    ~name:"streamed build = in-memory build (bit-identical, random docs)"
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:50 ()) (int_bound 11))
    (fun (elem, cfg) ->
      let doc = Xmlest.Document.of_elem elem in
      let grid_size =
        min (match cfg lsr 2 with 0 -> 8 | k -> k) (Xmlest.Document.max_pos doc + 1)
      in
      let grid_kind = if cfg land 1 = 0 then `Uniform else `Equidepth in
      let with_levels = cfg land 2 = 0 in
      let preds =
        [
          tagp "a";
          tagp "b";
          Xmlest.Predicate.Or (tagp "c", tagp "d");
          Xmlest.Predicate.And (tagp "a", Xmlest.Predicate.Level_eq 1);
          tagp "a";
          (* duplicate: both paths must dedup identically *)
          tagp "nosuchtag";
        ]
      in
      let sax = Xmlest.Sax.of_string (Xmlest.Xml_writer.to_string elem) in
      summaries_identical
        (Xmlest.Summary.build ~grid_size ~grid_kind ~with_levels doc preds)
        (Xmlest.Summary.build_stream ~grid_size ~grid_kind ~with_levels
           (fun () -> Xmlest.Sax.next sax)
           preds))

(* Random XML, indented or not, whose elements mix padded character data
   with child elements: an element's text arrives as several runs, some
   whitespace only, some padded, split by children and comments.  With
   [~attrs], elements also carry attributes, and a fourth tag occurs. *)
let padded_xml ~attrs st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let indented = Random.State.bool st in
  let newline depth =
    if indented then "\n" ^ String.make (2 * depth) ' ' else ""
  in
  let runs =
    [| ""; " "; "\n  "; "1990"; " 1990 "; "\n    1991\n  "; "conf/vldb"; "  conf/icde  ";
       "\t1990"; "1991 "; "<!-- c -->"; " &amp; " |]
  in
  let tags = if attrs then [| "a"; "b"; "c"; "d" |] else [| "a"; "b"; "c" |] in
  let attr_lists = [| ""; " k='1'"; " k=\"2\""; " j='x' k='1'" |] in
  let b = Buffer.create 256 in
  let budget = ref (1 + Random.State.int st 40) in
  let rec elem depth =
    decr budget;
    let tag = pick tags in
    Printf.bprintf b "<%s%s>%s" tag (if attrs then pick attr_lists else "") (pick runs);
    while !budget > 0 && Random.State.int st 3 > 0 do
      Buffer.add_string b (newline (depth + 1));
      elem (depth + 1);
      Buffer.add_string b (pick runs)
    done;
    Printf.bprintf b "%s</%s>" (newline depth) tag
  in
  elem 0;
  Buffer.contents b

let padded_xml_gen = padded_xml ~attrs:false

(* Both builds see an element's text trimmed: the in-memory one through
   [Xml_parser], the streamed one through its own frame buffers. *)
let prop_stream_trims_text =
  QCheck.Test.make ~count:100
    ~name:"streamed build = in-memory build on padded, mixed-content text"
    (QCheck.make ~print:Fun.id padded_xml_gen)
    (fun xml ->
      let doc = Xmlest.Document.of_elem (Xmlest.Xml_parser.parse_string_exn xml) in
      let grid_size = min 8 (Xmlest.Document.max_pos doc + 1) in
      let open Xmlest.Predicate in
      let preds =
        [
          text_eq ~tag:"a" "1990";
          text_eq ~tag:"b" "1991";
          text_prefix ~tag:"a" "conf";
          Text_prefix "1991";
          (* interior whitespace survives the trim *)
          Text_contains " ";
          any_of [ text_eq ~tag:"b" "1990"; text_eq ~tag:"b" "1991" ];
          any_of [ text_eq ~tag:"c" "1990"; text_eq ~tag:"c" "&" ];
        ]
      in
      List.for_all
        (fun grid_kind ->
          let sax = Xmlest.Sax.of_string xml in
          summaries_identical
            (Xmlest.Summary.build ~grid_size ~grid_kind doc preds)
            (Xmlest.Summary.build_stream ~grid_size ~grid_kind
               (fun () -> Xmlest.Sax.next sax)
               preds))
        [ `Uniform; `Equidepth ])

(* The streamed build assembles an element's text only where a predicate
   decided on it reads text.  Here the predicate sets read text on some
   tags only: [a] carries a pinned prefix, [b] a text-equality family,
   [c] textless pinned predicates, and [d] is named only under [Not];
   a third set adds an unpinned text predicate, which reads text
   everywhere. *)
let prop_stream_skips_unread_text =
  QCheck.Test.make ~count:100
    ~name:"unread text skipped: streamed = in-memory build"
    (QCheck.make ~print:Fun.id (padded_xml ~attrs:true))
    (fun xml ->
      let doc = Xmlest.Document.of_elem (Xmlest.Xml_parser.parse_string_exn xml) in
      let grid_size = min 8 (Xmlest.Document.max_pos doc + 1) in
      let open Xmlest.Predicate in
      let textless =
        [
          tagp "a";
          Attr_eq ("k", "1");
          And (tagp "b", Attr_eq ("k", "2"));
          Level_eq 1;
          And (tagp "c", Level_eq 2);
          Not (tagp "d");
        ]
      in
      let pinned_text =
        [
          text_prefix ~tag:"a" "conf";
          text_eq ~tag:"b" "1990";
          any_of [ text_eq ~tag:"b" "1990"; text_eq ~tag:"b" "1991" ];
        ]
      in
      List.for_all
        (fun preds ->
          List.for_all
            (fun grid_kind ->
              let sax = Xmlest.Sax.of_string xml in
              summaries_identical
                (Xmlest.Summary.build ~grid_size ~grid_kind doc preds)
                (Xmlest.Summary.build_stream ~grid_size ~grid_kind
                   (fun () -> Xmlest.Sax.next sax)
                   preds))
            [ `Uniform; `Equidepth ])
        [
          textless;
          textless @ pinned_text;
          textless @ pinned_text @ [ Text_prefix "1991" ];
        ])

let test_stream_equals_build_datasets () =
  (* Real generators carry text and attributes, so the streamed path's
     close-time text assembly (entity decoding, trimming, runs split by
     child elements) faces predicates that actually read it. *)
  let cases =
    [
      ("fig1", Test_util.fig1 (), [ tagp "faculty"; tagp "RA"; tagp "TA" ]);
      ( "staff",
        Xmlest.Staff_gen.generate (),
        [
          tagp "manager";
          tagp "employee";
          Xmlest.Predicate.text_prefix ~tag:"name" "A";
        ] );
      ( "dblp",
        Xmlest.Dblp_gen.generate_scaled 0.05,
        [
          tagp "article";
          tagp "author";
          Xmlest.Predicate.text_prefix ~tag:"cite" "conf";
          Xmlest.Predicate.any_of
            (List.init 10 (fun k ->
                 Xmlest.Predicate.text_eq ~tag:"year" (string_of_int (1990 + k))));
        ] );
    ]
  in
  List.iter
    (fun (name, elem, preds) ->
      let doc = Xmlest.Document.of_elem elem in
      let xml = Xmlest.Xml_writer.to_string elem in
      List.iter
        (fun grid_kind ->
          let mem = Xmlest.Summary.build ~grid_kind doc preds in
          let sax = Xmlest.Sax.of_string xml in
          let str =
            Xmlest.Summary.build_stream ~grid_kind
              (fun () -> Xmlest.Sax.next sax)
              preds
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" name
               (match grid_kind with `Uniform -> "uniform" | _ -> "equidepth"))
            true
            (summaries_identical mem str))
        [ `Uniform; `Equidepth ])
    cases

(* The spill's edges: more than 62 unique predicates put two mask words
   in every record, with the nesting predicates at bits 60-68, across the
   word boundary; a DBLP document of over 9,000 nodes spans several
   4,096-record read blocks, the first of them partial. *)
let test_stream_equals_build_wide_mask () =
  let elem = Xmlest.Dblp_gen.generate_scaled 0.05 in
  let doc = Xmlest.Document.of_elem elem in
  Alcotest.(check bool) "several read blocks" true (Xmlest.Document.size doc > 9000);
  let preds =
    List.init 60 (fun k ->
        Xmlest.Predicate.text_eq ~tag:"year" (string_of_int (1960 + k)))
    @ [
        tagp "author";
        tagp "title";
        tagp "article";
        tagp "inproceedings";
        tagp "dblp";
        Xmlest.Predicate.Level_eq 1;
        Xmlest.Predicate.Or (tagp "book", tagp "incollection");
        tagp "cite";
        Xmlest.Predicate.text_prefix ~tag:"cite" "conf";
      ]
  in
  let xml = Xmlest.Xml_writer.to_string elem in
  List.iter
    (fun grid_kind ->
      let sax = Xmlest.Sax.of_string xml in
      Alcotest.(check bool)
        (match grid_kind with `Uniform -> "uniform" | `Equidepth -> "equidepth")
        true
        (summaries_identical
           (Xmlest.Summary.build ~grid_kind doc preds)
           (Xmlest.Summary.build_stream ~grid_kind
              (fun () -> Xmlest.Sax.next sax)
              preds)))
    [ `Uniform; `Equidepth ]

let test_stream_build_file_and_stats () =
  let elem = Xmlest.Staff_gen.generate () in
  let doc = Xmlest.Document.of_elem elem in
  let preds = [ tagp "manager"; tagp "employee"; tagp "name" ] in
  let path = Filename.temp_file "xmlest_stream" ".xml" in
  Xmlest.Xml_writer.to_file path elem;
  let streamed = Xmlest.Summary.build_stream_file path preds in
  Sys.remove path;
  Alcotest.(check bool) "file build bit-identical" true
    (summaries_identical (Xmlest.Summary.build doc preds) streamed);
  Alcotest.(check bool) "no document attached" true
    (Xmlest.Summary.document streamed = None);
  (match Xmlest.Summary.stats streamed with
  | None -> Alcotest.fail "streamed build should carry stats"
  | Some st ->
    Alcotest.(check bool) "streamed path" true
      (st.Xmlest.Summary.path = `Streamed);
    check Alcotest.int "uniform: parse + replay" 2 st.Xmlest.Summary.passes;
    Alcotest.(check bool) "evals counted" true
      (st.Xmlest.Summary.predicate_evals > 0));
  let sax = Xmlest.Sax.of_string (Xmlest.Xml_writer.to_string elem) in
  let eq =
    Xmlest.Summary.build_stream ~grid_kind:`Equidepth
      (fun () -> Xmlest.Sax.next sax)
      preds
  in
  (match Xmlest.Summary.stats eq with
  | None -> Alcotest.fail "streamed build should carry stats"
  | Some st ->
    check Alcotest.int "equi-depth: parse + scan + replay" 3
      st.Xmlest.Summary.passes);
  Alcotest.check_raises "empty stream rejected"
    (Failure "Summary.build_stream: empty event stream") (fun () ->
      ignore (Xmlest.Summary.build_stream (fun () -> None) [ tagp "a" ]));
  (* an event stream that does not nest is a typed [Failure] too, never an
     index fault or a summary that silently drops the open elements *)
  let build events =
    let rest = ref events in
    let next () =
      match !rest with
      | [] -> None
      | ev :: tl ->
        rest := tl;
        Some ev
    in
    ignore (Xmlest.Summary.build_stream next [ tagp "a" ])
  in
  let op = Xmlest.Sax.Open { tag = "a"; attrs = [] } in
  Alcotest.check_raises "close without open rejected"
    (Failure
       "Summary.build_stream: unbalanced event stream (close without a \
        matching open)")
    (fun () -> build [ op; Xmlest.Sax.Close; Xmlest.Sax.Close ]);
  Alcotest.check_raises "elements left open rejected"
    (Failure
       "Summary.build_stream: unbalanced event stream (2 element(s) still \
        open at the end)")
    (fun () -> build [ op; op; op; Xmlest.Sax.Close ])

(* --- Parallel vs sequential construction and estimation --------------- *)

(* The predicate-split build must be [to_string]-bit-identical to the
   sequential one (and hence to the oracle), with the same evaluation
   count, for every domain count — including 3, which leaves subsets of
   unequal size, and 7 and 16, more domains than the 10 unique
   predicates — on both grid kinds, with the duplicate predicate.  Each
   node's text is a year, so [b]'s year predicates and their decade
   [any_of] form a text-equality family that different subsets split
   apart. *)
let prop_parallel_build_bit_identical =
  QCheck.Test.make ~count:50
    ~name:"parallel build = sequential build (bit-identical, random docs)"
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:60 ()) (int_bound 3))
    (fun (elem, cfg) ->
      let k = ref 0 in
      let rec with_years (e : Xmlest.Elem.t) =
        incr k;
        let text = string_of_int (1990 + (!k mod 6)) in
        { e with text; children = List.map with_years e.children }
      in
      let doc = Xmlest.Document.of_elem (with_years elem) in
      let year y = Xmlest.Predicate.text_eq ~tag:"b" (string_of_int y) in
      let grid_size = min 8 (Xmlest.Document.max_pos doc + 1) in
      let grid_kind = if cfg land 1 = 0 then `Uniform else `Equidepth in
      let with_levels = cfg land 2 = 0 in
      let preds =
        [
          tagp "a";
          tagp "b";
          Xmlest.Predicate.Or (tagp "c", tagp "d");
          Xmlest.Predicate.And (tagp "a", Xmlest.Predicate.Level_eq 1);
          tagp "a";
          tagp "nosuchtag";
          year 1990;
          year 1991;
          year 1992;
          year 1993;
          Xmlest.Predicate.any_of [ year 1990; year 1991; year 1992 ];
        ]
      in
      let build ?domains () =
        Xmlest.Summary.build ~grid_size ~grid_kind ~with_levels ?domains doc preds
      in
      let evals s =
        match Xmlest.Summary.stats s with
        | Some st -> st.Xmlest.Summary.predicate_evals
        | None -> -1
      in
      let seq = build () in
      List.for_all
        (fun d ->
          let par = build ~domains:d () in
          summaries_identical seq par && Int.equal (evals seq) (evals par))
        [ 1; 2; 3; 4; 7; 16 ])

let prop_estimate_batch_bit_identical =
  QCheck.Test.make ~count:40
    ~name:"estimate_batch = List.map estimate (bit-identical)"
    (Test_util.elem_arbitrary ~max_nodes:60 ())
    (fun elem ->
      let doc = Xmlest.Document.of_elem elem in
      let grid_size = min 8 (Xmlest.Document.max_pos doc + 1) in
      let s = Xmlest.Summary.build ~grid_size doc [ tagp "a"; tagp "b"; tagp "c" ] in
      let pats =
        (* //d//e exercises on-demand histogram builds inside the
           domain-local scratch catalogs *)
        List.map Xmlest.Pattern_parser.pattern_exn
          [ "//a"; "//a//b"; "//b//c"; "//a//b//c"; "//a/b"; "//c"; "//d//e" ]
      in
      let seq = List.map (Xmlest.Summary.estimate s) pats in
      (* a freshly reopened store, nothing adopted yet; its patterns stay
         within the catalog (no document to build on demand from) *)
      let stored = List.filteri (fun k _ -> k < 6) pats in
      let stored_seq = List.filteri (fun k _ -> k < 6) seq in
      List.for_all
        (fun domains ->
          List.for_all2 Float.equal seq
            (Xmlest.Summary.estimate_batch ~domains s pats))
        [ 1; 2; 4; 7 ]
      && List.for_all
           (fun domains ->
             List.for_all2 Float.equal stored_seq
               (Xmlest.Summary.estimate_batch ~domains (Test_util.reopened s) stored))
           [ 1; 2; 4 ])

(* On DBLP, both grid kinds: the parallel build is bit-identical to the
   sequential one, and [estimate_batch] over two and four domains returns
   the sequential estimates bit for bit on a repeated workload whose
   patterns name predicates outside the summary, so every domain builds
   them on demand in its scratch catalog and none reaches the summary's. *)
let test_parallel_build_datasets () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  let preds =
    [
      tagp "article";
      tagp "author";
      tagp "title";
      Xmlest.Predicate.text_prefix ~tag:"cite" "conf";
    ]
  in
  let workload =
    List.concat
      (List.init 3 (fun _ ->
           List.map Xmlest.Pattern_parser.pattern_exn
             [
               "//article//author"; "//article//title"; "//inproceedings//author";
               "//article//year"; "//book//author"; "//article//cite";
               "//phdthesis//year"; "//inproceedings//title";
             ]))
  in
  List.iter
    (fun grid_kind ->
      let kind = match grid_kind with `Uniform -> "uniform" | _ -> "equidepth" in
      let seq = Xmlest.Summary.build ~grid_kind doc preds in
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "dblp %s d=%d" kind domains)
            true
            (summaries_identical seq
               (Xmlest.Summary.build ~grid_kind ~domains doc preds)))
        [ 2; 4; 16 ];
      (* batches first: the sequential pass caches its on-demand builds *)
      let keys () = Xmlest.Hist_catalog.keys (Xmlest.Summary.hist_catalog seq) in
      let before = keys () in
      let batches =
        List.map
          (fun domains -> (domains, Xmlest.Summary.estimate_batch ~domains seq workload))
          [ 2; 4 ]
      in
      Alcotest.(check (list string)) (kind ^ " batches leave the catalog alone") before
        (keys ());
      let seq_est = List.map (Xmlest.Summary.estimate seq) workload in
      List.iter
        (fun (domains, got) ->
          Alcotest.(check bool)
            (Printf.sprintf "dblp %s estimate_batch d=%d" kind domains)
            true
            (List.for_all2
               (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
               seq_est got))
        batches)
    [ `Uniform; `Equidepth ]

let test_build_stats () =
  let doc = Test_util.fig1_doc () in
  let preds = [ tagp "faculty"; tagp "RA" ] in
  let get s =
    match Xmlest.Summary.stats s with
    | Some st -> st
    | None -> Alcotest.fail "built summary should carry stats"
  in
  let fused = get (Xmlest.Summary.build ~grid_size:4 doc preds) in
  Alcotest.(check bool) "fused path" true (fused.Xmlest.Summary.path = `Fused);
  check Alcotest.int "fused uniform: one pass" 1 fused.Xmlest.Summary.passes;
  Alcotest.(check bool) "fused evals counted" true
    (fused.Xmlest.Summary.predicate_evals > 0);
  Alcotest.(check bool) "time non-negative" true
    (fused.Xmlest.Summary.build_time >= 0.0);
  let eq = get (Xmlest.Summary.build ~grid_size:4 ~grid_kind:`Equidepth doc preds) in
  check Alcotest.int "fused equidepth: two passes" 2 eq.Xmlest.Summary.passes;
  (* the equi-depth positions pass dispatches the predicates just as the
     fill pass does *)
  check Alcotest.int "fused equidepth: twice the uniform evals"
    (2 * fused.Xmlest.Summary.predicate_evals)
    eq.Xmlest.Summary.predicate_evals;
  (* both bare tag predicates are dispatched only on their own tag's
     nodes: one evaluation per matching-tag node *)
  check Alcotest.int "one eval per pinned-tag node"
    (Test_util.pred_count doc (tagp "faculty") + Test_util.pred_count doc (tagp "RA"))
    fused.Xmlest.Summary.predicate_evals;
  (* stats are construction counters, not part of the persisted summary *)
  let s = Xmlest.Summary.build ~grid_size:4 doc preds in
  Alcotest.(check bool) "loaded summary has no stats" true
    (Xmlest.Summary.stats (Test_util.reopened s) = None)

(* [build_time] is wall-clock: a two-domain build's CPU time can exceed
   the wall time around it, its reported time cannot. *)
let test_build_time_is_wall_clock () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  let preds = [ tagp "article"; tagp "author"; tagp "title"; tagp "year" ] in
  let t0 = Unix.gettimeofday () in
  let s = Xmlest.Summary.build ~domains:2 doc preds in
  let wall = Unix.gettimeofday () -. t0 in
  match Xmlest.Summary.stats s with
  | None -> Alcotest.fail "built summary should carry stats"
  | Some st ->
    Alcotest.(check bool)
      (Printf.sprintf "build_time %.6f <= wall %.6f" st.Xmlest.Summary.build_time wall)
      true
      (st.Xmlest.Summary.build_time >= 0.0 && st.Xmlest.Summary.build_time <= wall)

(* --- The binary (.xsum) store ------------------------------------------ *)

(* Bit-identity of the reopened store, not mere closeness: the payload
   holds the exact float bits and every derived number (totals, coverage
   populations and per-cell totals) is recomputed the way the build
   computes it, so [to_string] — which prints every non-zero cell,
   coverage fraction and level count at %.17g — must come back
   byte-for-byte, and estimates (pure functions of those floats) must be
   [Float.equal].  Grids of one and two buckets are drawn too. *)
let prop_store_roundtrip_bit_identical =
  QCheck.Test.make ~count:40
    ~name:"saved -> reopened store is bit-identical (random docs)"
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:50 ()) (int_bound 15))
    (fun (elem, cfg) ->
      let doc = Xmlest.Document.of_elem elem in
      let grid_size =
        match cfg lsr 2 with
        | 0 -> 1
        | 1 -> 2
        | _ -> min 8 (Xmlest.Document.max_pos doc + 1)
      in
      let grid_kind = if cfg land 1 = 0 then `Uniform else `Equidepth in
      let with_levels = cfg land 2 = 0 in
      let preds =
        [
          tagp "a";
          tagp "b";
          Xmlest.Predicate.Or (tagp "c", tagp "d");
          tagp "a";
          tagp "nosuchtag";
        ]
      in
      let s =
        Xmlest.Summary.build ~grid_size ~grid_kind ~with_levels doc preds
      in
      let s' = Test_util.reopened s in
      (* only catalog predicates: a loaded summary cannot build
         histograms on demand (no document) *)
      let queries =
        [ "//a"; "//a//b"; "//b//a"; "//a/b"; "//b[.//a]"; "//nosuchtag//a" ]
      in
      String.equal (Xmlest.Summary.to_string s) (Xmlest.Summary.to_string s')
      && List.for_all
           (fun q ->
             Float.equal
               (Xmlest.Summary.estimate_string s q)
               (Xmlest.Summary.estimate_string s' q))
           queries)

(* The DBLP pipeline over the canonical 52 predicates, both grid kinds:
   the streamed build of an XML file, the in-memory build of the same
   file and that streamed build saved and reopened are all
   [to_string]-identical, the reopened store carries no document and no
   stats, and each query estimates bit-identically to the in-memory
   build off a freshly opened store, so each one adopts its own
   sections. *)
let test_store_roundtrip_datasets () =
  let elem = Xmlest.Dblp_gen.generate_scaled 0.1 in
  let preds = Test_util.dblp_predicates () in
  let xml = Filename.temp_file "xmlest_dblp" ".xml" in
  Fun.protect ~finally:(fun () -> Sys.remove xml) @@ fun () ->
  Xmlest.Xml_writer.to_file xml elem;
  let doc =
    match Xmlest.Xml_parser.parse_file xml with
    | Ok e -> Xmlest.Document.of_elem e
    | Error _ -> Alcotest.fail "cannot parse the written DBLP file"
  in
  List.iter
    (fun grid_kind ->
      let kind =
        match grid_kind with `Uniform -> "uniform" | _ -> "equidepth"
      in
      let s = Xmlest.Summary.build ~grid_kind doc preds in
      let streamed = Xmlest.Summary.build_stream_file ~grid_kind xml preds in
      Alcotest.(check bool) (kind ^ " streamed = in-memory") true
        (summaries_identical s streamed);
      Test_util.with_store streamed (fun path ->
          let open_store () =
            match Xmlest.Summary.load_store path with
            | Ok s' -> s'
            | Error e -> Alcotest.fail e
          in
          let s' = open_store () in
          Alcotest.(check bool) (kind ^ " reopened = in-memory") true
            (summaries_identical s s');
          Alcotest.(check bool) (kind ^ " no document") true
            (Xmlest.Summary.document s' = None);
          Alcotest.(check bool) (kind ^ " no stats") true
            (Xmlest.Summary.stats s' = None);
          List.iter
            (fun q ->
              Alcotest.(check bool)
                (Printf.sprintf "%s estimate bit-identical for %s" kind q)
                true
                (Float.equal
                   (Xmlest.Summary.estimate_string s q)
                   (Xmlest.Summary.estimate_string (open_store ()) q)))
            [
              "//article//author"; "//article//cite"; "//book//title";
              "//article//title"; "//article/title"; "//article//year";
              "//article[.//author][.//cite]"; "//article[.//author][.//title]";
              "//article[.//cite[starts-with(text(),'conf')]]";
            ]))
    [ `Uniform; `Equidepth ]

let test_store_open_rejects_garbage () =
  let path = Filename.temp_file "xmlest" ".xsum" in
  let oc = open_out_bin path in
  output_string oc "not a store\n";
  close_out oc;
  (match Xmlest.Summary.load_store path with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* truncate a valid store's payload: the header parses, the length
     check must refuse it *)
  let _, s = staff_summary () in
  Xmlest.Summary.save_store s path;
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (len - 16);
  Unix.close fd;
  (match Xmlest.Summary.load_store path with
  | Ok _ -> Alcotest.fail "truncated store accepted"
  | Error e ->
    Alcotest.(check bool) "mentions truncation" true
      (Test_util.contains_substring e "truncated"));
  (match Xmlest.Summary.load_store (path ^ ".does-not-exist") with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ());
  let valid =
    Xmlest.Summary.save_store s path;
    In_channel.with_open_bin path In_channel.input_all
  in
  let load_bytes bytes =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
    Xmlest.Summary.load_store path
  in
  (* bytes past the payload are refused as well *)
  (match load_bytes (valid ^ "\000") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error _ -> ());
  (* the previous container version is refused, not misread *)
  (match load_bytes "xsum 1\npayload 000000000064 000000000001\n" with
  | Ok _ -> Alcotest.fail "xsum 1 store accepted"
  | Error e -> check Alcotest.string "version error" "unsupported store version" e);
  (* A grid line no grid can be built from, padded with spaces to the
     valid line's length: size 0, a negative size, more buckets than
     positions, and a grid whose cells do not match the header's cell
     count. *)
  (* the header's second line: magic, grid *)
  let grid_at = String.index valid '\n' + 1 in
  let grid_end = String.index_from valid grid_at '\n' in
  Alcotest.(check bool) "uniform grid line" true
    (String.starts_with ~prefix:"grid uniform "
       (String.sub valid grid_at (grid_end - grid_at)));
  let max_pos = (Xmlest.Summary.grid s).Xmlest.Grid.max_pos in
  let rejection line =
    let len = grid_end - grid_at in
    if String.length line > len then Alcotest.failf "%S too long" line;
    let bad =
      String.sub valid 0 grid_at
      ^ line
      ^ String.make (len - String.length line) ' '
      ^ String.sub valid grid_end (String.length valid - grid_end)
    in
    match load_bytes bad with
    | Ok _ -> Alcotest.failf "grid line %S accepted" line
    | Error e -> e
  in
  List.iter
    (fun line -> ignore (rejection line))
    [
      Printf.sprintf "grid uniform 0 %d" max_pos;
      Printf.sprintf "grid uniform -3 %d" max_pos;
      "grid uniform 10 5";
      "grid uniform 9 -1";
    ];
  (* refused before the grid's boundaries are allocated *)
  Alcotest.(check bool) "oversized grid refused up front" true
    (Test_util.contains_substring (rejection "grid uniform 999 999") "does not fit");
  Sys.remove path

(* Satellite: a summary reopened from a store must start with a cold
   coefficient catalog — version counters restart at 0, so stale memoized
   pH-join arrays from the original summary can never be served. *)
let test_store_reopen_cold_catalog () =
  let _, s = staff_summary () in
  (* warm the original's catalog *)
  ignore (Xmlest.Summary.estimate_string s "//manager//employee");
  ignore (Xmlest.Summary.estimate_string s "//department//email");
  Alcotest.(check bool) "original catalog warmed" true
    (Xmlest.Hist_catalog.cached_arrays (Xmlest.Summary.hist_catalog s) > 0);
  let s' = Test_util.reopened s in
  let cat' = Xmlest.Summary.hist_catalog s' in
  check Alcotest.int "no cached arrays carried over" 0
    (Xmlest.Hist_catalog.cached_arrays cat');
  let warm = Xmlest.Summary.estimate_string s' "//manager//employee" in
  let c1 = Xmlest.Hist_catalog.counters cat' in
  Alcotest.(check bool) "first estimate misses, not hits" true
    (c1.Xmlest.Hist_catalog.misses > 0 && Int.equal c1.Xmlest.Hist_catalog.hits 0);
  (* and the freshly computed coefficients are served from cache after *)
  let again = Xmlest.Summary.estimate_string s' "//manager//employee" in
  let c2 = Xmlest.Hist_catalog.counters cat' in
  Alcotest.(check bool) "second estimate hits" true
    (c2.Xmlest.Hist_catalog.hits > c1.Xmlest.Hist_catalog.hits);
  check (Alcotest.float 0.0) "same estimate" warm again

let test_streamed_build_saved_to_store () =
  (* the full out-of-core pipeline: XML file -> streamed build -> .xsum ->
     reopened summary, bit-identical to the in-memory original *)
  let elem = Xmlest.Staff_gen.generate () in
  let doc = Xmlest.Document.of_elem elem in
  let preds = [ tagp "manager"; tagp "employee"; tagp "name" ] in
  let xml = Filename.temp_file "xmlest_stream" ".xml" in
  Xmlest.Xml_writer.to_file xml elem;
  let streamed = Xmlest.Summary.build_stream_file xml preds in
  Sys.remove xml;
  let s' = Test_util.reopened streamed in
  Alcotest.(check bool) "pipeline bit-identical" true
    (String.equal
       (Xmlest.Summary.to_string (Xmlest.Summary.build doc preds))
       (Xmlest.Summary.to_string s'))

(* --- Store format, error contract and laziness ------------------------ *)

(* Where a saved store's parts lie, read the way the format lays them out:
   the binary header after the magic and grid lines, the section table,
   the payload, and per table entry its name and the file position of its
   three (offset, count) pairs. *)
type layout = {
  header_at : int;
  table_at : int;
  payload_at : int;
  sections : (string * int * int) list;  (* name, entry start, spans *)
}

let u32_at bytes p = Int32.to_int (String.get_int32_le bytes p) land 0xFFFF_FFFF

let store_layout bytes =
  let header_at = String.index_from bytes (String.index bytes '\n' + 1) '\n' + 1 in
  let table_at = header_at + 24 in
  let payload_at = table_at + u32_at bytes (header_at + 16) in
  let str p = (String.sub bytes (p + 4) (u32_at bytes p), p + 4 + u32_at bytes p) in
  let rec walk k pos acc =
    if Int.equal k (u32_at bytes (header_at + 12)) then List.rev acc
    else begin
      let name, p = str (pos + 1) in
      let _tag, p = str p in
      let _syntax, p = str p in
      walk (k + 1) (p + 24) ((name, pos, p) :: acc)
    end
  in
  { header_at; table_at; payload_at; sections = walk 0 table_at [] }

let saved_bytes s =
  Test_util.with_store s (fun path -> In_channel.with_open_bin path In_channel.input_all)

(* [bytes] written to a temporary file and opened; [f] gets the result. *)
let with_bytes_store bytes f =
  let path = Filename.temp_file "xmlest" ".xsum" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
      f path (Xmlest.Summary.load_store path))

let set_u32 b p v = Bytes.set_int32_le b p (Int32.of_int v)

let raises_corrupt f =
  match f () with
  | _ -> false
  | exception Xmlest.Summary.Corrupt_store _ -> true

(* Strings that a line-oriented header could not carry —
   newlines, carriage returns, quotes, backslashes, spaces, the word
   [end], non-ASCII bytes — survive a save and reopen in text, attribute
   and tag predicates. *)
let awkward_string =
  let pieces = [| "a"; "\n"; "\r"; "\""; "\\"; " "; "end"; "\xc3\xa9"; "\nend\n"; "\\\"" |] in
  QCheck.Gen.(map (String.concat "") (list_size (int_range 1 5) (oneofa pieces)))

let prop_store_awkward_strings =
  QCheck.Test.make ~count:60
    ~name:"store round-trips predicates with newlines, quotes, non-ASCII"
    (QCheck.make
       ~print:QCheck.Print.(list string)
       QCheck.Gen.(list_size (int_range 1 4) awkward_string))
    (fun strs ->
      let module P = Xmlest.Predicate in
      let module E = Xmlest.Elem in
      let elem =
        E.make "r"
          ~children:
            (List.map
               (fun s -> E.make "p" ~text:s ~attrs:[ ("k", s) ] ~children:[ E.make s ])
               strs)
      in
      let doc = Xmlest.Document.of_elem elem in
      let preds =
        tagp "r" :: tagp "p"
        :: List.concat_map
             (fun s -> [ P.text_eq ~tag:"p" s; P.Attr_eq ("k", s); P.tag s; P.text_prefix ~tag:"p" s ])
             strs
      in
      let s = Xmlest.Summary.build ~grid_size:4 doc preds in
      let s' = Test_util.reopened s in
      let queries =
        List.concat_map
          (fun p ->
            [
              Xmlest.Pattern.node p;
              Xmlest.Pattern.node ~edges:[ (Xmlest.Pattern.Descendant, Xmlest.Pattern.node p) ] (tagp "r");
            ])
          preds
      in
      String.equal (Xmlest.Summary.to_string s) (Xmlest.Summary.to_string s')
      && List.for_all
           (fun q ->
             Float.equal (Xmlest.Summary.estimate s q) (Xmlest.Summary.estimate s' q))
           queries)

(* The store mutation suite: 1–4 bytes of a saved store overwritten,
   half the cases inside the header and section table, half inside the
   payload.  The store is the staff summary on a uniform or an equi-depth
   grid, or a Treebank summary shaped like the benchmark's [plan] one
   (self-nesting tags, g = 50).  Every case must end in an [Error] from
   [load_store], in [Corrupt_store] when a broken section is first used,
   or in estimates that are finite and non-negative; [to_string] then
   adopts every section, so a broken section nothing queried is still
   caught. *)
let prop_store_mutations =
  let staff_doc, staff = staff_summary () in
  let treebank_doc =
    Xmlest.Document.of_elem (Xmlest.Treebank_gen.generate ~sentences:400 ())
  in
  let treebank_preds =
    List.map tagp
      [ "FILE"; "EMPTY"; "S"; "NP"; "VP"; "PP"; "SBAR"; "DT"; "JJ"; "NN"; "IN"; "VB" ]
  in
  let staff_queries =
    [
      "//manager//employee"; "//department//email"; "//employee//name";
      "//manager[.//department][.//employee]"; "//department/email";
      "//manager//department//employee//name";
    ]
  in
  let stores =
    Array.map
      (fun (s, queries) ->
        let valid = saved_bytes s in
        (valid, store_layout valid, List.map Xmlest.Pattern_parser.pattern_exn queries))
      [|
        (staff, staff_queries);
        ( Xmlest.Summary.build ~grid_size:10 ~grid_kind:`Equidepth staff_doc
            (Xmlest.Summary.predicates staff),
          staff_queries );
        ( Xmlest.Summary.build ~grid_size:50 treebank_doc treebank_preds,
          [
            "//S//NP"; "//NP//NP"; "//VP//PP//NN"; "//SBAR//S[.//PP]"; "//S/VP";
            "//NP[.//DT][.//NN]";
          ] );
      |]
  in
  let sound e = Float.is_finite e && e >= 0.0 in
  QCheck.Test.make ~count:1500
    ~name:"mutated store: Error, Corrupt_store or sound estimates"
    QCheck.(
      triple (int_bound (Array.length stores - 1)) bool
        (list_of_size (Gen.int_range 1 4) (pair (int_bound 1_000_000) (int_bound 255))))
    (fun (which, in_payload, edits) ->
      let valid, l, queries = stores.(which) in
      let b = Bytes.of_string valid in
      let lo, hi =
        if in_payload then (l.payload_at, String.length valid) else (0, l.payload_at)
      in
      List.iter (fun (p, v) -> Bytes.set_uint8 b (lo + (p mod (hi - lo))) v) edits;
      with_bytes_store (Bytes.to_string b) (fun _ -> function
        | Error _ -> true
        | Ok s' -> (
          match List.map (Xmlest.Summary.estimate s') queries with
          | estimates ->
            List.for_all sound estimates
            && (match Xmlest.Summary.to_string s' with
               | _ -> true
               | exception Xmlest.Summary.Corrupt_store _ -> true)
          | exception Xmlest.Summary.Corrupt_store _ -> true)))

(* Hand-made broken sections, written through [Store.write]
   (which checks nothing), each opening fine and raising [Corrupt_store]
   at the first lookup of its predicate while the sound section beside it
   keeps working. *)
let test_store_crafted_sections () =
  let module St = Xmlest.Store in
  let grid = Xmlest.Grid.create ~size:4 ~max_pos:99 in
  let section p =
    {
      St.name = Xmlest.Predicate.name p;
      tag = Xmlest.Predicate.tag_of p;
      syntax = Xmlest.Predicate.to_syntax p;
      no_overlap = true;
      hist = ([| 0; 5 |], [| 2.0; 1.0 |]);
      cvg = Some [ (5, 0, 0.5) ];
      lvl = Some [| 1.0; 2.0 |];
    }
  in
  let a = section (tagp "a") and b = { (section (tagp "b")) with cvg = None } in
  let population = ([| 0; 5; 15 |], [| 3.0; 2.0; 1.0 |]) in
  let store ?(population = population) sections f =
    let path = Filename.temp_file "xmlest" ".xsum" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        St.write path ~grid ~population sections;
        match Xmlest.Summary.load_store path with
        | Ok s -> f s
        | Error e -> Alcotest.failf "crafted store refused at open: %s" e)
  in
  store [ a; b ] (fun s ->
      check (Alcotest.float 0.0) "sound store reads back" 3.0
        (Xmlest.Summary.node_count s (tagp "a")));
  let nan = Float.nan and inf = Float.infinity in
  List.iter
    (fun (what, bad) ->
      store [ bad; b ] (fun s ->
          Alcotest.(check bool) (what ^ ": corrupt at first use") true
            (raises_corrupt (fun () -> Xmlest.Summary.histogram s (tagp "a")));
          check (Alcotest.float 0.0) (what ^ ": the other section still reads") 3.0
            (Xmlest.Summary.node_count s (tagp "b"));
          Alcotest.(check bool) (what ^ ": whole-summary use is corrupt too") true
            (raises_corrupt (fun () -> Xmlest.Summary.to_string s))))
    [
      ("unsorted runs", { a with hist = ([| 5; 0 |], [| 1.0; 2.0 |]) });
      ("duplicate runs", { a with hist = ([| 5; 5 |], [| 1.0; 2.0 |]) });
      ("cell past g^2", { a with hist = ([| 16 |], [| 1.0 |]) });
      ("cell below the diagonal", { a with hist = ([| 4 |], [| 1.0 |]) });
      ("NaN count", { a with hist = ([| 0 |], [| nan |]) });
      ("negative count", { a with hist = ([| 0 |], [| -1.0 |]) });
      ("infinite count", { a with hist = ([| 0 |], [| inf |]) });
      ("fractional count", { a with hist = ([| 0 |], [| 0.5 |]) });
      ("coverage fraction above 1", { a with cvg = Some [ (5, 0, 1.5) ] });
      ("NaN coverage fraction", { a with cvg = Some [ (5, 0, nan) ] });
      ("unsorted coverage", { a with cvg = Some [ (5, 5, 0.5); (5, 0, 0.5) ] });
      ("duplicate coverage", { a with cvg = Some [ (5, 0, 0.5); (5, 0, 0.5) ] });
      ("coverage below the diagonal", { a with cvg = Some [ (4, 0, 0.5) ] });
      ("negative level count", { a with lvl = Some [| -1.0 |] });
      ("no level counts", { a with lvl = Some [||] });
      ("unparsable syntax", { a with syntax = "(tag \"a\"" });
      ("syntax of another predicate", { a with syntax = Xmlest.Predicate.to_syntax (tagp "b") });
      ("tag not the syntax's", { a with tag = Some "z" });
    ];
  (* a broken population is found by the first section that needs it:
     coverage is normalized by the population's cells *)
  store ~population:([| 5; 0 |], [| 2.0; 3.0 |]) [ a; b ] (fun s ->
      check (Alcotest.float 0.0) "no coverage, no population needed" 3.0
        (Xmlest.Summary.node_count s (tagp "b"));
      Alcotest.(check bool) "broken population" true
        (raises_corrupt (fun () -> Xmlest.Summary.histogram s (tagp "a"))));
  (* byte-level: table lengths and counts that run past their bounds are
     refused at open *)
  let _, staff = staff_summary () in
  let valid = saved_bytes staff in
  let l = store_layout valid in
  let _, entry, _ = List.hd l.sections in
  let name_len = u32_at valid (entry + 1) in
  let tag_len = u32_at valid (entry + 5 + name_len) in
  let syntax_len_at = entry + 9 + name_len + tag_len in
  List.iter
    (fun (what, edit) ->
      let b = Bytes.of_string valid in
      edit b;
      with_bytes_store (Bytes.to_string b) (fun _ -> function
        | Ok _ -> Alcotest.failf "%s accepted" what
        | Error _ -> ()))
    [
      ("name length past the end of the file", fun b -> set_u32 b (entry + 1) 0xFFFF_FF00);
      ("name length past the table", fun b -> set_u32 b (entry + 1) (name_len + 1));
      ("syntax length past the end of the file", fun b -> set_u32 b syntax_len_at 0x7FFF_FFFF);
      ("section count past the table", fun b -> set_u32 b (l.header_at + 12) 0xFFFF_FFFF);
      ("one section too many", fun b -> set_u32 b (l.header_at + 12) (List.length l.sections + 1));
      ("table length short", fun b -> set_u32 b (l.header_at + 16) (l.payload_at - l.table_at - 1));
      ("unknown section flag", fun b -> Bytes.set_uint8 b entry 0x80);
      ("runs past the payload", fun b ->
          let _, _, spans = List.hd l.sections in
          set_u32 b (spans + 4) 0x0FFF_FFFF);
      ("population past the payload", fun b -> set_u32 b (l.header_at + 8) 0x0FFF_FFFF);
    ]

(* The DBLP 0.05 summary the laziness tests reopen. *)
(* The CLI's exit code, standard output and standard error.  The child
   runs under a time limit: past [seconds] it is killed and the code is
   124. *)
let run_cli ?(seconds = 60) args =
  let out = Filename.temp_file "xmlest_cli" ".out" in
  let err = Filename.temp_file "xmlest_cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command "timeout"
             (string_of_int seconds
             :: Filename.concat (Filename.dirname Sys.executable_name) "../bin/xmlest_cli.exe"
             :: args)
             ~stdout:out ~stderr:err)
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (code, read out, read err))

(* [generate] writes nothing and exits 1 unless the scale is finite and
   > 0. *)
let test_cli_generate_checks_scale () =
  let path = Filename.temp_file "xmlest_gen" ".xml" in
  Sys.remove path;
  List.iter
    (fun (dataset, scale) ->
      let code, _, msg =
        run_cli [ "generate"; dataset; "--scale=" ^ scale; "-o"; path ]
      in
      check Alcotest.int (dataset ^ " --scale=" ^ scale ^ " exit code") 1 code;
      Alcotest.(check bool) ("names the scale: " ^ msg) true
        (Test_util.contains_substring msg "scale must be finite and > 0");
      Alcotest.(check bool) "no file written" false (Sys.file_exists path))
    [ ("dblp", "-1"); ("staff", "nan"); ("xmark", "0"); ("treebank", "inf") ];
  let code, _, msg = run_cli [ "generate"; "staff"; "--scale=0.01"; "-o"; path ] in
  check Alcotest.int ("a positive scale still generates: " ^ msg) 0 code;
  Sys.remove path

(* Exact counts honour a query's leading '/': on staff data the root is
   the one manager that is the document element. *)
let anchored_counts = [ ("/manager", 1); ("/department", 0); ("//manager", 39) ]

(* [f] on the path of a generated staff document, removed afterwards. *)
let with_staff_xml f =
  let path = Filename.temp_file "xmlest_staff" ".xml" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let code, _, err = run_cli [ "generate"; "staff"; "-o"; path ] in
  check Alcotest.int ("generate: " ^ err) 0 code;
  f path

let test_cli_exact_anchor () =
  with_staff_xml @@ fun path ->
  List.iter
    (fun (q, n) ->
      let code, out, err = run_cli [ "estimate"; "--exact"; path; q ] in
      check Alcotest.int ("estimate --exact " ^ q ^ ": " ^ err) 0 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: exact %d in %S" q n out)
        true
        (Test_util.contains_substring out (Printf.sprintf "exact:    %d\n" n)))
    anchored_counts

(* [query] keeps a leading '/' too: its match count is the exact one. *)
let test_cli_query_anchor () =
  with_staff_xml @@ fun path ->
  List.iter
    (fun (q, n) ->
      let code, out, err = run_cli [ "query"; path; q; "--limit"; "0" ] in
      check Alcotest.int ("query " ^ q ^ ": " ^ err) 0 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d matches in %S" q n out)
        true
        (String.starts_with ~prefix:(Printf.sprintf "%d matches " n) out))
    anchored_counts

(* [plan] rejects a pattern with no joins to order, and ranks a twig. *)
let test_cli_plan_single_node () =
  with_staff_xml @@ fun path ->
  let code, out, err = run_cli [ "plan"; path; "//manager" ] in
  check Alcotest.int ("plan //manager exits 1: " ^ out) 1 code;
  Alcotest.(check bool) ("names the single node: " ^ err) true
    (Test_util.contains_substring err "single-node pattern");
  check Alcotest.string "prints no table" "" out;
  let code, out, err = run_cli [ "plan"; path; "//manager//employee" ] in
  check Alcotest.int ("plan //manager//employee: " ^ err) 0 code;
  Alcotest.(check bool) ("ranks plans: " ^ out) true
    (Test_util.contains_substring out "est. cost")

(* The optimizer's plan search is a program over node sets: a 12-node
   chain and a 10-leaf star (7,257,600 orders) answer at once, and a
   pattern past its node limit is a usage error. *)
let test_cli_node_limit () =
  with_staff_xml @@ fun path ->
  let chain = String.concat "" (List.init 12 (fun _ -> "//manager")) in
  let code, out, err = run_cli ~seconds:10 [ "query"; path; chain; "--limit"; "1" ] in
  check Alcotest.int ("query on a 12-node chain: " ^ err) 0 code;
  Alcotest.(check bool) ("counts: " ^ out) true (String.starts_with ~prefix:"0 matches " out);
  let star = "//manager" ^ String.concat "" (List.init 10 (fun _ -> "[.//employee]")) in
  let code, out, err = run_cli ~seconds:10 [ "plan"; path; star ] in
  check Alcotest.int ("plan on a 10-leaf star: " ^ err) 0 code;
  Alcotest.(check bool) ("prints the order count: " ^ out) true
    (Test_util.contains_substring out "7257600 orders; only the cheapest is listed");
  let big = String.concat "" (List.init 70 (fun _ -> "//manager")) in
  List.iter
    (fun cmd ->
      let code, out, err = run_cli ~seconds:10 [ cmd; path; big ] in
      check Alcotest.int (cmd ^ " on 70 nodes exits 1: " ^ err) 1 code;
      Alcotest.(check bool) (cmd ^ " names the limit: " ^ err) true
        (Test_util.contains_substring err "more than the 14");
      check Alcotest.string (cmd ^ " prints nothing") "" out)
    [ "plan"; "query" ]

(* An unreadable input or an unwritable output is exit 1 with the
   system's message, never an uncaught exception. *)
let test_cli_io_errors () =
  with_staff_xml @@ fun path ->
  let dir = Filename.dirname path in
  List.iter
    (fun (args, msg) ->
      let name = String.concat " " args in
      let code, _, err = run_cli args in
      check Alcotest.int (name ^ " exits 1: " ^ err) 1 code;
      Alcotest.(check bool) (name ^ " says why: " ^ err) true
        (Test_util.contains_substring err msg))
    [
      ([ "estimate"; dir; "//a" ], "Is a directory");
      ([ "build-summary"; path; "-o"; "/dev/full" ], "No space left on device");
    ]

(* A bad --grid is a usage error on every subcommand that builds a
   summary: exit 1 with the grid's message, never an uncaught exception. *)
let test_cli_bad_grid () =
  with_staff_xml @@ fun path ->
  List.iter
    (fun args ->
      let name = String.concat " " args in
      let code, out, err = run_cli args in
      check Alcotest.int (name ^ " exits 1: " ^ err) 1 code;
      Alcotest.(check bool) (name ^ " names the grid: " ^ err) true
        (Test_util.contains_substring err "size must be positive");
      Alcotest.(check bool) (name ^ ": no internal error") false
        (Test_util.contains_substring err "internal error");
      check Alcotest.string (name ^ " prints nothing") "" out)
    [
      [ "plan"; "--grid=0"; path; "//manager//employee" ];
      [ "plan"; "--grid=-1"; path; "//manager//employee" ];
      [ "query"; "--grid=0"; path; "//manager//employee" ];
      [ "estimate"; "--grid=0"; path; "//manager//employee" ];
    ]

(* [query --limit] takes a count: a negative one is refused, as the
   shell's [run] refuses it, and 0 still counts only. *)
let test_cli_query_negative_limit () =
  with_staff_xml @@ fun path ->
  let code, out, err = run_cli [ "query"; path; "//manager"; "--limit=-1" ] in
  check Alcotest.int ("--limit=-1 exits 1: " ^ out) 1 code;
  Alcotest.(check bool) ("names the limit: " ^ err) true
    (Test_util.contains_substring err "--limit must be >= 0");
  check Alcotest.string "prints no matches" "" out;
  let code, out, err = run_cli [ "query"; path; "//manager"; "--limit=0" ] in
  check Alcotest.int ("--limit=0: " ^ err) 0 code;
  Alcotest.(check bool) ("counts: " ^ out) true
    (String.starts_with ~prefix:"39 matches " out)

(* [estimate --store --exact] is refused before the store is opened: no
   estimate on stdout, even for a path that is no store at all. *)
let test_cli_store_exact () =
  with_staff_xml @@ fun path ->
  let store = Filename.temp_file "xmlest_staff" ".xsum" in
  Fun.protect ~finally:(fun () -> Sys.remove store) @@ fun () ->
  let code, _, err = run_cli [ "build-summary"; path; "-o"; store ] in
  check Alcotest.int ("build-summary: " ^ err) 0 code;
  List.iter
    (fun file ->
      let code, out, err =
        run_cli [ "estimate"; "--store"; "--exact"; file; "//manager//employee" ]
      in
      check Alcotest.int ("--store --exact exits 1: " ^ out) 1 code;
      Alcotest.(check bool) ("names --exact: " ^ err) true
        (Test_util.contains_substring err "--exact requires the XML document");
      check Alcotest.string "prints nothing" "" out)
    [ store; path ]

let dblp_store_summary () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  Xmlest.Summary.build doc
    [
      tagp "article"; tagp "author"; tagp "title"; tagp "year"; tagp "cite";
      Xmlest.Predicate.text_prefix ~tag:"cite" "conf";
    ]

let dblp_queries =
  [
    "//article//author"; "//article//year"; "//article[.//author][.//year]";
    "//article/author"; "//article//cite"; "//article//cite[starts-with(text(),'conf')]";
    "//year"; "//article[.//cite][.//author]";
  ]

(* Opening adopts nothing, and a lookup adopts exactly the
   sections it names. *)
let test_store_open_is_lazy () =
  let s = dblp_store_summary () in
  Test_util.with_store s (fun path ->
      match Xmlest.Summary.load_store path with
      | Error e -> Alcotest.failf "store open failed: %s" e
      | Ok s' ->
        let cat = Xmlest.Summary.hist_catalog s' in
        check Alcotest.int "nothing adopted at open" 0 (List.length (Xmlest.Hist_catalog.keys cat));
        ignore (Xmlest.Summary.estimate_string s' "//article//author");
        check Alcotest.(list string) "the query's two sections adopted"
          [ "tag=article"; "tag=author" ] (Xmlest.Hist_catalog.keys cat);
        ignore (Xmlest.Summary.predicates s');
        check Alcotest.int "a whole-summary operation adopts every section" 6
          (List.length (Xmlest.Hist_catalog.keys cat)))

(* One predicate's runs broken in a saved store.  The store
   still opens; estimates over the other predicates stay bit-identical;
   the first lookup of the broken one raises [Corrupt_store]; the CLI
   reports it and exits 1 without a backtrace. *)
let test_store_corrupt_section_is_local () =
  let s = dblp_store_summary () in
  let valid = saved_bytes s in
  let l = store_layout valid in
  let _, _, spans = List.find (fun (n, _, _) -> String.equal n "tag=title") l.sections in
  let b = Bytes.of_string valid in
  (* the first run's count becomes NaN *)
  Bytes.set_int64_le b
    (l.payload_at + u32_at valid spans + 4)
    (Int64.bits_of_float Float.nan);
  with_bytes_store (Bytes.to_string b) (fun path -> function
    | Error e -> Alcotest.failf "a broken section must not fail the open: %s" e
    | Ok s' ->
      List.iter
        (fun q ->
          Alcotest.(check bool) ("bit-identical " ^ q) true
            (Float.equal
               (Xmlest.Summary.estimate_string s q)
               (Xmlest.Summary.estimate_string s' q)))
        dblp_queries;
      Alcotest.(check bool) "first lookup of the broken predicate" true
        (raises_corrupt (fun () -> Xmlest.Summary.estimate_string s' "//article//title"));
      let cli query = run_cli [ "estimate"; "--store"; path; query ] in
      let code, _, msg = cli "//article//title" in
      check Alcotest.int "CLI exit code" 1 code;
      Alcotest.(check bool) ("CLI names the corruption: " ^ msg) true
        (Test_util.contains_substring msg "corrupt summary store");
      Alcotest.(check bool) "no backtrace" false
        (Test_util.contains_substring msg "Raised at"
        || Test_util.contains_substring msg "exception");
      (* A query that avoids the broken section answers in full: printing
         the storage line adopts nothing the query did not name. *)
      let q = "//article//author" in
      let code, out, msg = cli q in
      check Alcotest.int ("CLI exit code off the broken section: " ^ msg) 0 code;
      let want = Printf.sprintf "estimate: %.1f\n" (Xmlest.Summary.estimate_string s q) in
      Alcotest.(check bool) ("CLI prints the estimate: " ^ out) true
        (Test_util.contains_substring out want))

(* Estimates do not depend on the order in which sections are
   adopted. *)
let test_store_adoption_order () =
  let s = dblp_store_summary () in
  let queries = Array.of_list dblp_queries in
  let expected = Array.map (Xmlest.Summary.estimate_string s) queries in
  let rng = Xmlest.Splitmix.create 7 in
  for _ = 1 to 8 do
    let order = Array.init (Array.length queries) Fun.id in
    Xmlest.Splitmix.shuffle rng order;
    let s' = Test_util.reopened s in
    Array.iter
      (fun k ->
        Alcotest.(check bool) ("order-independent " ^ queries.(k)) true
          (Float.equal expected.(k) (Xmlest.Summary.estimate_string s' queries.(k))))
      order
  done

(* --- Repl ----------------------------------------------------------------- *)

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_repl_session () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  Alcotest.(check bool) "gen" true (contains "element nodes" (run "gen staff"));
  Alcotest.(check bool) "stats" true (contains "department" (run "stats"));
  Alcotest.(check bool) "summarize" true (contains "5 predicates" (run "summarize"));
  Alcotest.(check bool) "estimate" true (contains "matches" (run "estimate //manager//employee"));
  Alcotest.(check bool) "explain has method" true
    (contains "pH-join" (run "explain //manager//department"));
  Alcotest.(check bool) "exact" true (contains "matches" (run "exact //manager//employee"));
  Alcotest.(check bool) "plan" true (contains "est. cost" (run "plan //manager//employee"));
  (* 2 × 8! orders: counted, not listed *)
  let star = "plan //manager" ^ String.concat "" (List.init 8 (fun _ -> "[.//employee]")) in
  Alcotest.(check bool) "plan counts a star's orders" true
    (contains "80640 orders; only the cheapest is listed" (run star));
  Alcotest.(check bool) "past the node limit" true
    (contains "error: Optimizer" (run ("run " ^ String.concat "" (List.init 15 (fun _ -> "//a")))));
  Alcotest.(check bool) "run" true (contains "matches" (run "run //manager//employee 2"))

let test_repl_exact_anchor () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  ignore (run "gen staff");
  List.iter
    (fun (q, n) ->
      check Alcotest.string ("exact " ^ q) (Printf.sprintf "%d matches" n) (run ("exact " ^ q)))
    anchored_counts

(* [run] keeps only the bindings [exact] counts: with a leading '/', the
   pattern's root must be the document root. *)
let test_repl_run_anchor () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  ignore (run "gen staff");
  ignore (run "summarize 10");
  let header out = List.hd (String.split_on_char '\n' out) in
  check Alcotest.string "run /department" "0 matches" (header (run "run /department"));
  check Alcotest.string "run /manager" "1 matches" (header (run "run /manager"));
  List.iter
    (fun q -> check Alcotest.string ("run " ^ q) (run ("exact " ^ q)) (header (run ("run " ^ q))))
    (List.map fst anchored_counts
    @ [ "/manager//department"; "/manager/department//employee"; "/department//email";
        "//manager//department" ])

let test_repl_roundtrip_summary () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  ignore (run "gen staff");
  ignore (run "summarize 10");
  let est_before = run "estimate //department//email" in
  let path = Filename.temp_file "xmlest_repl" ".xsum" in
  Alcotest.(check bool) "save" true (contains "saved" (run ("save-summary " ^ path)));
  (match Xmlest.Summary.load_store path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save-summary did not write a store: %s" e);
  (* fresh state: load only the summary, no document *)
  let state2 = Xmlest.Repl.create () in
  let run2 cmd = Xmlest.Repl.execute state2 cmd in
  Alcotest.(check bool) "load" true
    (contains "from store" (run2 ("load-summary " ^ path)));
  check Alcotest.string "same estimate" est_before
    (run2 "estimate //department//email");
  Sys.remove path;
  Alcotest.(check bool) "missing store" true
    (contains "error" (run2 ("load-summary " ^ path)))

let test_repl_errors () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  Alcotest.(check bool) "no doc" true (contains "error" (run "stats"));
  Alcotest.(check bool) "no summary" true (contains "error" (run "estimate //a"));
  Alcotest.(check bool) "unknown cmd" true (contains "error" (run "frobnicate"));
  Alcotest.(check bool) "unknown dataset" true (contains "error" (run "gen nope"));
  Alcotest.(check bool) "bad scale" true (contains "error" (run "gen staff abc"));
  List.iter
    (fun cmd ->
      Alcotest.(check bool) cmd true
        (contains "error: scale must be finite and > 0" (run cmd)))
    [ "gen xmark -5"; "gen staff nan"; "gen dblp 0"; "gen treebank inf" ];
  ignore (run "gen staff");
  ignore (run "summarize");
  check Alcotest.string "negative run limit" "error: bad limit \"-1\""
    (run "run //employee//name -1");
  check Alcotest.string "non-integer run limit" "error: bad limit \"x\""
    (run "run //employee//name x");
  Alcotest.(check bool) "bad query" true (contains "error" (run "estimate not-a-query"));
  check Alcotest.string "empty input" "" (run "");
  Alcotest.(check bool) "help" true (contains "commands" (run "help"))

let test_repl_hist_command () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  ignore (run "gen staff");
  ignore (run "summarize");
  let out = run "hist department" in
  Alcotest.(check bool) "heatmap header" true
    (String.length out > 0 && String.contains out '\\');
  Alcotest.(check bool) "unknown tag errors" true
    (let out = run "hist nonexistent" in
     String.length out >= 5 && String.sub out 0 5 = "error")

let test_repl_catalog_commands () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  Alcotest.(check bool) "needs summary" true (contains "error" (run "catalog stats"));
  ignore (run "gen staff");
  ignore (run "summarize");
  (* the ':' prefix used by interactive sessions is accepted *)
  let stats = run ":catalog stats" in
  Alcotest.(check bool) "histogram count shown" true (contains "histograms" stats);
  Alcotest.(check bool) "counters shown" true (contains "hits" stats);
  ignore (run "estimate //manager//employee");
  Alcotest.(check bool) "reset" true (contains "reset" (run "catalog reset"));
  let usage = "error: usage: catalog stats|reset" in
  check Alcotest.string "usage error" usage (run "catalog");
  (* catalogs are not persisted: save/load are usage errors *)
  check Alcotest.string "no catalog save" usage (run "catalog save x.catalog");
  check Alcotest.string "no catalog load" usage (run "catalog load x.catalog")

let test_repl_equidepth_summarize () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  ignore (run "gen staff");
  Alcotest.(check bool) "equidepth flag" true
    (contains "equi-depth" (run "summarize 12 equidepth"))

let test_repl_set_domains () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  ignore (run "gen staff");
  ignore (run "summarize");
  let seq = run "estimate //department//employee" in
  Alcotest.(check string) "set domains echoes" "domains: 3" (run "set domains 3");
  Alcotest.(check bool) "summarize reports domains" true
    (contains "3 domains" (run "summarize"));
  (* the parallel-built summary estimates exactly like the sequential one *)
  Alcotest.(check string) "same estimate" seq
    (run "estimate //department//employee");
  Alcotest.(check bool) "rejects garbage" true
    (contains "error" (run "set domains many"));
  Alcotest.(check bool) "rejects negatives" true
    (contains "error" (run "set domains -2"));
  Alcotest.(check bool) "0 = recommended" true
    (contains "recommended" (run "set domains 0"))

(* --- Static analysis before estimation --------------------------------- *)

(* Random descendant/child twig over the generator's tag pool, so patterns
   mix present and absent tags against random documents. *)
let random_pattern rng =
  let tags = [| "a"; "b"; "c"; "d"; "e" |] in
  let rec gen depth =
    let pred = tagp (Xmlest.Splitmix.choose rng tags) in
    if depth >= 2 then Xmlest.Pattern.node pred
    else begin
      let edges =
        List.init
          (Xmlest.Splitmix.int rng 3)
          (fun _ ->
            let axis =
              if Int.equal (Xmlest.Splitmix.int rng 2) 0 then
                Xmlest.Pattern.Descendant
              else Xmlest.Pattern.Child
            in
            (axis, gen (depth + 1)))
      in
      Xmlest.Pattern.node ~edges pred
    end
  in
  gen 0

let doc_and_pattern_arbitrary =
  QCheck.make
    ~print:(fun (elem, _, p) ->
      Format.asprintf "%s over %a" (Xmlest.Pattern.to_string p) Test_util.pp_elem
        elem)
    (fun st ->
      let elem = Test_util.elem_gen ~max_nodes:40 () st in
      let rng = Xmlest.Splitmix.create (Random.State.bits st) in
      (elem, Xmlest.Document.of_elem elem, random_pattern rng))

let checked_summary doc =
  Xmlest.Summary.build
    ~grid_size:(Int.min 6 (Xmlest.Document.max_pos doc + 1))
    doc
    (List.map tagp (Xmlest.Document.distinct_tags doc))

let prop_clean_patterns_estimate_identically =
  QCheck.Test.make ~count:60
    ~name:"estimate_checked = estimate on check-clean patterns"
    doc_and_pattern_arbitrary
    (fun (_, doc, pattern) ->
      let s = checked_summary doc in
      let est, diags = Xmlest.Summary.estimate_checked s pattern in
      if Xmlest.Pattern_check.unsatisfiable diags then
        (* the proof must be honored with an exact zero *)
        Float.equal est 0.0
      else
        (* diagnostics-free (or warn-only) estimation is untouched *)
        Float.equal est (Xmlest.Summary.estimate s pattern))

let prop_contradiction_zeroes_estimate =
  QCheck.Test.make ~count:60
    ~name:"contradictory conjunction => (0.0, unsat diagnostic)"
    doc_and_pattern_arbitrary
    (fun (_, doc, pattern) ->
      let s = checked_summary doc in
      (* poison the root: no node carries two different tags *)
      let poisoned =
        {
          pattern with
          Xmlest.Pattern.pred =
            Xmlest.Predicate.And
              (Xmlest.Predicate.Tag "a", Xmlest.Predicate.Tag "b");
        }
      in
      let est, diags = Xmlest.Summary.estimate_checked s poisoned in
      Float.equal est 0.0 && Xmlest.Pattern_check.unsatisfiable diags)

(* The estimate contract on random documents, patterns and both grid
   kinds.  A pattern the check proves empty must also have no exact
   match: the proof is sound, not only honored. *)
let prop_estimate_contract =
  QCheck.Test.make ~count:100
    ~name:"estimates are finite, >= 0, and 0.0 when proved unsat"
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:40 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc = Xmlest.Document.of_elem elem in
      let rng = Xmlest.Splitmix.create seed in
      List.for_all
        (fun grid_kind ->
          let s =
            Xmlest.Summary.build ~grid_kind
              ~grid_size:(Int.min 6 (Xmlest.Document.max_pos doc + 1))
              doc
              (List.map tagp (Xmlest.Document.distinct_tags doc))
          in
          List.for_all
            (fun _ ->
              let p = Test_util.contract_pattern rng in
              Test_util.estimate_contract s p
              && ((not (Xmlest.Pattern_check.unsatisfiable (Xmlest.Summary.check s p)))
                 || Int.equal (Xmlest.Twig_count.count doc p) 0))
            (List.init 8 Fun.id))
        [ `Uniform; `Equidepth ])

let test_check_document_vs_loaded_schema () =
  let _, s = staff_summary () in
  let pattern = Xmlest.Pattern_parser.pattern_exn "//manager//zzz" in
  (* with the document, the tag set is exhaustive: absence is a proof *)
  let diags = Xmlest.Summary.check s pattern in
  Alcotest.(check bool) "absent tag is unsat" true
    (Xmlest.Pattern_check.unsatisfiable diags);
  let est, _ = Xmlest.Summary.estimate_checked s pattern in
  check Alcotest.(float 0.0) "estimate short-circuits to zero" 0.0 est;
  (* a loaded summary has no document: only warn about unknown tags *)
  let loaded = Test_util.reopened s in
  let diags = Xmlest.Summary.check loaded pattern in
  Alcotest.(check bool) "diagnosed" false (List.is_empty diags);
  Alcotest.(check bool) "but only as a warning" false
    (Xmlest.Pattern_check.unsatisfiable diags)

let test_repl_check_command () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  ignore (run "gen staff");
  ignore (run "summarize");
  Alcotest.(check bool) "clean query" true
    (contains "no issues" (run "check //manager//employee"));
  Alcotest.(check bool) "absent tag diagnosed" true
    (contains "unknown-tag" (run "check //manager//zzz"));
  Alcotest.(check bool) "estimate reports unsatisfiability" true
    (contains "unsatisfiable" (run "estimate //manager//zzz"))

let () =
  Alcotest.run "core"
    [
      ( "summary",
        [
          Alcotest.test_case "overlap detection" `Quick test_build_detects_overlap;
          Alcotest.test_case "coverage exactly for no-overlap" `Quick
            test_coverage_built_exactly_for_no_overlap;
          Alcotest.test_case "node counts exact" `Quick test_node_counts_exact;
          Alcotest.test_case "on-demand histograms" `Quick
            test_histogram_on_demand_and_cached;
          Alcotest.test_case "compound via catalog" `Quick
            test_compound_histogram_via_catalog;
          Alcotest.test_case "estimate_string" `Quick test_estimate_string_parses;
          Alcotest.test_case "storage budget" `Quick test_storage_budget;
          Alcotest.test_case "grid size respected" `Quick test_grid_size_respected;
          Alcotest.test_case "equi-depth summary" `Quick test_equidepth_summary;
        ] );
      ( "construction",
        [
          qcheck prop_fused_equals_legacy;
          qcheck prop_parallel_build_bit_identical;
          qcheck prop_estimate_batch_bit_identical;
          Alcotest.test_case "parallel = sequential on datasets" `Quick
            test_parallel_build_datasets;
          Alcotest.test_case "fused = legacy on datasets" `Quick
            test_fused_equals_legacy_datasets;
          qcheck prop_stream_equals_build;
          qcheck prop_stream_trims_text;
          qcheck prop_stream_skips_unread_text;
          Alcotest.test_case "streamed = in-memory on datasets" `Quick
            test_stream_equals_build_datasets;
          Alcotest.test_case "streamed = in-memory, two mask words" `Quick
            test_stream_equals_build_wide_mask;
          Alcotest.test_case "streamed file build and stats" `Quick
            test_stream_build_file_and_stats;
          Alcotest.test_case "build stats" `Quick test_build_stats;
          Alcotest.test_case "build time is wall clock" `Quick
            test_build_time_is_wall_clock;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "string roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_save_load_file;
          Alcotest.test_case "unknown predicate raises" `Quick
            test_loaded_summary_unknown_predicate;
        ] );
      ( "store",
        [
          qcheck prop_store_roundtrip_bit_identical;
          Alcotest.test_case "dblp roundtrip both grid kinds" `Quick
            test_store_roundtrip_datasets;
          Alcotest.test_case "rejects garbage and truncation" `Quick
            test_store_open_rejects_garbage;
          Alcotest.test_case "reopen starts a cold catalog" `Quick
            test_store_reopen_cold_catalog;
          Alcotest.test_case "streamed build to store pipeline" `Quick
            test_streamed_build_saved_to_store;
          qcheck prop_store_awkward_strings;
          qcheck prop_store_mutations;
          Alcotest.test_case "crafted broken sections" `Quick
            test_store_crafted_sections;
          Alcotest.test_case "open adopts nothing" `Quick test_store_open_is_lazy;
          Alcotest.test_case "a broken section stays local" `Quick
            test_store_corrupt_section_is_local;
          Alcotest.test_case "adoption order" `Quick test_store_adoption_order;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "dblp predicate set" `Quick test_advisor_on_dblp;
          Alcotest.test_case "per-tag cap" `Quick test_advisor_respects_caps;
          Alcotest.test_case "thresholds" `Quick test_advisor_thresholds;
          Alcotest.test_case "textless tags" `Quick test_advisor_textless_tags;
        ] );
      ( "repl",
        [
          Alcotest.test_case "full session" `Quick test_repl_session;
          Alcotest.test_case "summary roundtrip" `Quick test_repl_roundtrip_summary;
          Alcotest.test_case "errors" `Quick test_repl_errors;
          Alcotest.test_case "equidepth summarize" `Quick test_repl_equidepth_summarize;
          Alcotest.test_case "set domains" `Quick test_repl_set_domains;
          Alcotest.test_case "hist command" `Quick test_repl_hist_command;
          Alcotest.test_case "catalog commands" `Quick test_repl_catalog_commands;
          Alcotest.test_case "exact honours the anchor" `Quick test_repl_exact_anchor;
          Alcotest.test_case "run honours the anchor" `Quick test_repl_run_anchor;
        ] );
      ( "cli",
        [
          Alcotest.test_case "generate checks its scale" `Quick
            test_cli_generate_checks_scale;
          Alcotest.test_case "estimate --exact honours the anchor" `Quick
            test_cli_exact_anchor;
          Alcotest.test_case "query honours the anchor" `Quick test_cli_query_anchor;
          Alcotest.test_case "plan rejects a single-node pattern" `Quick
            test_cli_plan_single_node;
          Alcotest.test_case "bad grid exits 1" `Quick test_cli_bad_grid;
          Alcotest.test_case "query rejects a negative limit" `Quick
            test_cli_query_negative_limit;
          Alcotest.test_case "estimate --store --exact refused up front" `Quick
            test_cli_store_exact;
          Alcotest.test_case "plan and query within the node limit" `Quick
            test_cli_node_limit;
          Alcotest.test_case "I/O errors exit 1" `Quick test_cli_io_errors;
        ] );
      ( "static_analysis",
        [
          qcheck prop_clean_patterns_estimate_identically;
          qcheck prop_contradiction_zeroes_estimate;
          qcheck prop_estimate_contract;
          Alcotest.test_case "document vs loaded schema" `Quick
            test_check_document_vs_loaded_schema;
          Alcotest.test_case "repl check command" `Quick test_repl_check_command;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "Table 2 shape on DBLP" `Quick
            test_end_to_end_dblp_table2_shape;
          Alcotest.test_case "other data sets smoke" `Quick test_multiple_datasets_smoke;
          Alcotest.test_case "mid-size integration (55k nodes, g=100)" `Slow
            test_scale_integration;
        ] );
    ]
