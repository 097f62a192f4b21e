(* Tests for the XML substrate: element trees, parser, writer, interval
   labeling, interval sweeps, per-tag statistics. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check
let qcheck = Test_util.to_alcotest (* seeded: see test_util.ml *)

(* --- Elem ------------------------------------------------------------ *)

let test_elem_size_depth () =
  let e = Test_util.fig1 () in
  check Alcotest.int "fig1 size" 31 (Xmlest.Elem.size e);
  check Alcotest.int "fig1 depth" 3 (Test_util.elem_depth e);
  check Alcotest.int "leaf size" 1 (Xmlest.Elem.size (Xmlest.Elem.make "x"));
  check Alcotest.int "leaf depth" 1 (Test_util.elem_depth (Xmlest.Elem.make "x"))

let test_elem_counts () =
  let e = Test_util.fig1 () in
  let count tag = Test_util.elem_count (fun n -> n.Xmlest.Elem.tag = tag) e in
  check Alcotest.int "faculty" 3 (count "faculty");
  check Alcotest.int "TA" 5 (count "TA");
  check Alcotest.int "RA" 10 (count "RA");
  check Alcotest.int "name" 6 (count "name")

let test_elem_tag_counts () =
  let e = Test_util.fig1 () in
  let counts = Xmlest.Elem.tag_counts e in
  check
    Alcotest.(list (pair string int))
    "sorted tag counts"
    [
      ("RA", 10); ("TA", 5); ("department", 1); ("faculty", 3);
      ("lecturer", 1); ("name", 6); ("research_scientist", 1);
      ("secretary", 3); ("staff", 1);
    ]
    counts

let test_elem_attr () =
  let e = Xmlest.Elem.make ~attrs:[ ("id", "7"); ("k", "v") ] "x" in
  check
    Alcotest.(list (pair string string))
    "attributes kept in document order through writer and parser"
    [ ("id", "7"); ("k", "v") ]
    (Xmlest.Xml_parser.parse_string_exn (Xmlest.Xml_writer.to_string e)).Xmlest.Elem.attrs

let test_elem_fold_preorder () =
  let e =
    Xmlest.Elem.make "r"
      ~children:
        [
          Xmlest.Elem.make "a" ~children:[ Xmlest.Elem.make "b" ];
          Xmlest.Elem.make "c";
        ]
  in
  let order =
    List.rev (Test_util.elem_fold (fun acc n -> n.Xmlest.Elem.tag :: acc) [] e)
  in
  check Alcotest.(list string) "pre-order" [ "r"; "a"; "b"; "c" ] order

(* --- Parser ----------------------------------------------------------- *)

let parse = Xmlest.Xml_parser.parse_string_exn

let test_parse_simple () =
  let e = parse "<a><b>hi</b><c x='1'/></a>" in
  check Alcotest.string "root tag" "a" e.Xmlest.Elem.tag;
  check Alcotest.int "children" 2 (List.length e.Xmlest.Elem.children);
  let b = List.nth e.Xmlest.Elem.children 0 in
  check Alcotest.string "text" "hi" b.Xmlest.Elem.text;
  let c = List.nth e.Xmlest.Elem.children 1 in
  check Alcotest.(option string) "attr" (Some "1") (List.assoc_opt "x" c.Xmlest.Elem.attrs)

let test_parse_entities () =
  let e = parse "<a>x &lt;&amp;&gt; &#65;&#x42; &quot;q&quot;</a>" in
  check Alcotest.string "decoded" "x <&> AB \"q\"" e.Xmlest.Elem.text

let test_parse_cdata_comments () =
  let e = parse "<a><!-- note --><![CDATA[<raw&>]]]]><?pi data?></a>" in
  check Alcotest.string "cdata kept raw" "<raw&>]]" e.Xmlest.Elem.text;
  check Alcotest.int "no phantom children" 0 (List.length e.Xmlest.Elem.children)

let test_parse_prolog () =
  let e =
    parse
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><!-- c --><a>t</a>"
  in
  check Alcotest.string "root" "a" e.Xmlest.Elem.tag;
  check Alcotest.string "text" "t" e.Xmlest.Elem.text

let test_parse_nested_same_tag () =
  let e = parse "<a><a><a/></a></a>" in
  check Alcotest.int "size" 3 (Xmlest.Elem.size e)

let test_parse_errors () =
  let bad s =
    match Xmlest.Xml_parser.parse_string s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "<a>";
  bad "<a></b>";
  bad "<a><b></a></b>";
  bad "<a>&unknown;</a>";
  bad "<a/><b/>";
  bad "just text"

let test_parse_error_position () =
  match Xmlest.Xml_parser.parse_string "<a>\n<b></c>\n</a>" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> check Alcotest.int "line" 2 e.Xmlest.Xml_parser.line

let test_roundtrip_fixed () =
  let e = Test_util.fig1 () in
  let s = Xmlest.Xml_writer.to_string e in
  let e' = parse s in
  check Alcotest.bool "roundtrip equal" true (Test_util.elem_equal e e')

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"writer/parser roundtrip"
    (Test_util.elem_arbitrary ()) (fun e ->
      let s = Xmlest.Xml_writer.to_string e in
      Test_util.elem_equal e (parse s))

let prop_roundtrip_compact =
  QCheck.Test.make ~count:100 ~name:"roundtrip without indentation"
    (Test_util.elem_arbitrary ()) (fun e ->
      let s = Xmlest.Xml_writer.to_string ~indent:false e in
      Test_util.elem_equal e (parse s))

let test_escape () =
  check Alcotest.string "text and attribute escapes"
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <t k=\"&quot;x&amp;\">a&amp;b&lt;c&gt;d</t>\n"
    (Xmlest.Xml_writer.to_string ~indent:false
       (Xmlest.Elem.leaf ~attrs:[ ("k", "\"x&") ] "t" "a&b<c>d"));
  let e = Xmlest.Elem.leaf "t" "5 < 6 & \"q\"" in
  check Alcotest.bool "escaped roundtrip" true
    (Test_util.elem_equal e (parse (Xmlest.Xml_writer.to_string e)))

let prop_parser_never_crashes =
  (* Fuzz: arbitrary byte strings must yield Ok or Error, never an
     exception or a hang. *)
  QCheck.Test.make ~count:500 ~name:"parser total on arbitrary bytes"
    QCheck.(string_of_size Gen.(int_bound 200))
    (fun s ->
      match Xmlest.Xml_parser.parse_string s with
      | Ok _ | Error _ -> true)

(* XML-flavored fragment soup, which reaches deeper code paths than
   arbitrary bytes: every construct's opener and terminator, newlines for
   positions, and character references both valid and not. *)
let soup_fragments =
  [|
    "<a>"; "</a>"; "<b x='1'>"; "<![CDATA["; "]]>"; "<!--"; "-->"; "&lt;";
    "&#65;"; "&bad;"; "text"; "<?pi"; "?>"; "\""; "'"; "<"; ">"; "/>"; "<a";
    "="; "\n"; "]"; "-"; "<!DOCTYPE"; "["; "&#x42;"; "&#233;"; "&#x1F600;";
    "&#-5;"; "&#99999999999;"; "&#x7FFFFFFF;"; "&#0b101;"; "&#+5;"; "&#1_0;";
    "&#x;"; "&#x10FFFF;"; "&#1114112;";
    (* close tags that are a prefix or an extension of the open one *)
    "<ab>"; "<abc>"; "</ab>"; "</abc>"; "<a/ >";
  |]

let xml_soup seed =
  let rng = Xmlest.Splitmix.create seed in
  let n = Xmlest.Splitmix.int rng 20 in
  let b = Buffer.create 64 in
  for _ = 1 to n do
    Buffer.add_string b (Xmlest.Splitmix.choose rng soup_fragments)
  done;
  Buffer.contents b

let prop_parser_never_crashes_xmlish =
  QCheck.Test.make ~count:500 ~name:"parser total on xml-ish soup"
    QCheck.(int_bound 100_000)
    (fun seed ->
      match Xmlest.Xml_parser.parse_string (xml_soup seed) with
      | Ok _ | Error _ -> true)

(* --- Differential: Sax and Xml_parser against the recursive oracle ------ *)

let attrs_equal =
  List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)

let event_equal a b =
  match (a, b) with
  | Xmlest.Sax.Open a, Xmlest.Sax.Open b ->
    String.equal a.tag b.tag && attrs_equal a.attrs b.attrs
  | Xmlest.Sax.Text a, Xmlest.Sax.Text b -> String.equal a b
  | Xmlest.Sax.Close, Xmlest.Sax.Close -> true
  | (Xmlest.Sax.Open _ | Xmlest.Sax.Text _ | Xmlest.Sax.Close), _ -> false

let error_equal (a : Xmlest.Sax.error) (b : Xmlest.Sax.error) =
  Int.equal a.line b.line && Int.equal a.column b.column
  && String.equal a.message b.message

let drain sax =
  match Xmlest.Sax.fold (fun acc ev -> ev :: acc) [] sax with
  | events -> Ok (List.rev events)
  | exception Xmlest.Sax.Parse_error e -> Error e

let with_temp_file contents f =
  let path = Filename.temp_file "xmlest" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let string_events s = drain (Xmlest.Sax.of_string s)

let channel_events s =
  with_temp_file s (fun path ->
      In_channel.with_open_bin path (fun ic -> drain (Xmlest.Sax.of_channel ic)))

(* [s] parses to the oracle's tree and events, or fails with the oracle's
   (line, column, message), through the tree parser and through Sax over
   a string and over a channel. *)
let agrees_with_oracle s =
  let events_are expected = function
    | Ok events -> List.equal event_equal expected events
    | Error _ -> false
  in
  let error_is e = function Error e' -> error_equal e e' | Ok _ -> false in
  match Legacy_xml_parser.parse s with
  | Ok (tree, events) ->
    (match Xmlest.Xml_parser.parse_string s with
    | Ok t -> Test_util.elem_equal tree t
    | Error _ -> false)
    && events_are events (string_events s)
    && events_are events (channel_events s)
  | Error e ->
    error_is e (Xmlest.Xml_parser.parse_string s)
    && error_is e (string_events s)
    && error_is e (channel_events s)

(* Random trees with text and attributes full of characters the writer
   escapes, written with or without indentation and sometimes truncated,
   so that both clean round-trips and positioned errors come out. *)
let text_pool =
  [| ""; "x"; " padded "; "a<b"; "&"; "q\"uote'"; "line\nbreak"; "\xc3\xa9";
     "]]>"; "tab\t"; "--"; "?>" |]

let writer_input_gen st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let rec decorate (e : Xmlest.Elem.t) =
    let attrs =
      List.init (Random.State.int st 3) (fun _ ->
          (pick [| "id"; "k"; "x-y"; "a.b" |], pick text_pool))
    in
    Xmlest.Elem.make e.tag ~attrs ~text:(pick text_pool)
      ~children:(List.map decorate e.children)
  in
  let e = decorate (Test_util.elem_gen ~max_nodes:20 () st) in
  let s = Xmlest.Xml_writer.to_string ~indent:(Random.State.bool st) e in
  (* Markup the writer never emits, after a random '>', splits an
     element's character data into several Text runs. *)
  let s =
    let rec insert s k =
      if k = 0 then s
      else
        let at = Random.State.int st (String.length s) in
        match String.index_from_opt s at '>' with
        | None -> insert s (k - 1)
        | Some i ->
          let extra = pick [| "<!-- c -->"; "<?p x?>"; "<![CDATA[ z]]>"; "&amp;"; "w" |] in
          insert
            (String.sub s 0 (i + 1) ^ extra ^ String.sub s (i + 1) (String.length s - i - 1))
            (k - 1)
    in
    insert s (Random.State.int st 4)
  in
  if Random.State.int st 3 = 0 then String.sub s 0 (Random.State.int st (String.length s))
  else s

let prop_writer_inputs_match_oracle =
  QCheck.Test.make ~count:300 ~name:"sax + tree parser = oracle (writer output)"
    (QCheck.make ~print:String.escaped writer_input_gen)
    agrees_with_oracle

let prop_soup_matches_oracle =
  QCheck.Test.make ~count:1000 ~name:"sax + tree parser = oracle (xml-ish soup)"
    (QCheck.make ~print:String.escaped QCheck.Gen.(map xml_soup (int_bound 1_000_000)))
    agrees_with_oracle

(* Character references outside 0..0x10FFFF, or with anything but
   decimal (after &#) or hex (after &#x) digits, are parse errors with a
   position — in text, in attribute values, from Sax and in update lines. *)
let test_bad_char_refs () =
  List.iter
    (fun r ->
      let message = Printf.sprintf "bad character reference %s" r in
      List.iter
        (fun (doc, column) ->
          (match Xmlest.Xml_parser.parse_string doc with
          | Ok _ -> Alcotest.failf "%S parsed" doc
          | Error e ->
            check Alcotest.string ("message " ^ doc) message e.message;
            check Alcotest.(pair int int) ("position " ^ doc) (1, column) (e.line, e.column));
          Alcotest.(check bool) ("sax " ^ doc) true
            (match string_events doc with
            | Error e -> String.equal e.message message
            | Ok _ -> false);
          match Xmlest.Update.parse ("insert 0 0 " ^ doc) with
          | Ok _ -> Alcotest.failf "update line with %S parsed" doc
          | Error msg ->
            Alcotest.(check bool) ("update " ^ msg) true
              (Test_util.contains_substring msg message))
        [
          ("<a>" ^ r ^ "</a>", 4 + String.length r);
          ("<a x='" ^ r ^ "'/>", 7 + String.length r);
        ])
    [ "&#-5;"; "&#99999999999;"; "&#x7FFFFFFF;"; "&#0b101;"; "&#+5;"; "&#1_0;";
      "&#x;"; "&#1114112;"; "&#x110000;"; "&# 5;" ];
  List.iter
    (fun (r, decoded) ->
      check Alcotest.string r decoded (parse ("<a>" ^ r ^ "</a>")).Xmlest.Elem.text)
    [ ("&#0065;", "A"); ("&#X41;", "A"); ("&#xe9;", "\xc3\xa9");
      ("&#x10FFFF;", "\xf4\x8f\xbf\xbf"); ("&#1114111;", "\xf4\x8f\xbf\xbf") ]

(* --- The channel reader's refill edge ------------------------------------ *)

(* Sax.of_channel fills a 64 KiB buffer; the first refill happens where
   the first read ends, at byte 65,536 of the file. *)
let refill_edge = 65_536

(* A document that puts [construct] [k] bytes before the refill edge,
   after newline-bearing text, with more elements after it. *)
let straddling construct k =
  let head = "<?xml version='1.0'?>\n<r>" in
  let pad = refill_edge - k - String.length head in
  let filler = String.init pad (fun i -> if i mod 61 = 60 then '\n' else 't') in
  let tail = String.concat "" (List.init 400 (fun i -> Printf.sprintf "<e i='%d'>v</e>\n" i)) in
  String.concat "" [ head; filler; construct; tail; "</r>" ]

let edge_constructs =
  [
    "<averyveryverylongtagname attr='a value &amp; more'>x</averyveryverylongtagname>";
    "&amp;&#x1F600;&quot;&#233;";
    "<![CDATA[cdata ]] body]]>";
    "<!-- a comment - with -- dashes -->";
    "<?pi some data ?>";
    "a\n\nb";
  ]

let test_refill_edge () =
  List.iter
    (fun construct ->
      for k = 1 to String.length construct + 1 do
        let doc = straddling construct k in
        Alcotest.(check bool) "well-formed" true (Result.is_ok (Legacy_xml_parser.parse doc));
        Alcotest.(check bool)
          (Printf.sprintf "%S at edge - %d" construct k)
          true (agrees_with_oracle doc)
      done)
    edge_constructs;
  (* Errors at and far past the edge keep their line and column, through
     several buffer compactions. *)
  let positioned doc =
    let expected =
      match Legacy_xml_parser.parse doc with
      | Error e -> e
      | Ok _ -> Alcotest.fail "malformed document parsed"
    in
    List.iter
      (fun (name, got) ->
        match got with
        | Error e ->
          check Alcotest.(triple int int string) name
            (expected.line, expected.column, expected.message)
            (e.Xmlest.Sax.line, e.column, e.message)
        | Ok _ -> Alcotest.failf "%s: malformed document parsed" name)
      [ ("of_string", string_events doc); ("of_channel", channel_events doc) ]
  in
  for k = 1 to 8 do
    positioned (straddling "&bogus;" k)
  done;
  (* A close tag is matched against the open one in place: one that is a
     prefix or an extension of it, or that runs past the longest name
     compared so, fails as the oracle does wherever the edge cuts it. *)
  List.iter
    (fun construct ->
      for k = 1 to String.length construct + 1 do
        positioned (straddling construct k)
      done)
    [ "<abc>x</ab>"; "<ab>x</abc>"; "<a/ >" ];
  (* Names longer than that are cut by the edge every 7 bytes. *)
  let long = String.make 300 'n' in
  let splits construct = List.init ((String.length construct / 7) + 1) (fun i -> 1 + (7 * i)) in
  List.iter
    (fun construct -> List.iter (fun k -> positioned (straddling construct k)) (splits construct))
    [ "<" ^ long ^ ">x</" ^ long ^ "m>"; "<" ^ long ^ "m>x</" ^ long ^ ">" ];
  let construct = "<" ^ long ^ ">x</" ^ long ^ ">" in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "long name at edge - %d" k)
        true (agrees_with_oracle (straddling construct k)))
    (splits construct);
  let lines = String.concat "" (List.init 20_000 (fun i -> Printf.sprintf "<l>%d</l>\n" i)) in
  Alcotest.(check bool) "several refills" true (String.length lines > 3 * refill_edge);
  positioned ("<r>\n" ^ lines ^ "  </q>");
  positioned ("<r>\n" ^ lines ^ "<l>&bad;</l>")

(* More distinct names than the parser interns (4,096): names past the
   table's bound are copied as they come, and events and errors still
   match the oracle's, through several refills. *)
let test_many_distinct_names () =
  let names = 10_000 in
  let body =
    String.concat ""
      (List.init names (fun i -> Printf.sprintf "<tag_%05d attr_%05d='v'>t</tag_%05d>\n" i i i))
  in
  Alcotest.(check bool) "several refills" true (String.length body > 3 * refill_edge);
  let doc = "<r>\n" ^ body ^ "</r>" in
  Alcotest.(check bool) "well-formed" true (Result.is_ok (Legacy_xml_parser.parse doc));
  Alcotest.(check bool) "events = oracle" true (agrees_with_oracle doc);
  List.iter
    (fun tail ->
      let doc = "<r>\n" ^ body ^ tail in
      Alcotest.(check bool) ("malformed " ^ tail) true (Result.is_error (Legacy_xml_parser.parse doc));
      Alcotest.(check bool) ("error = oracle " ^ tail) true (agrees_with_oracle doc))
    [ "<tag_09999>x</tag_09998></r>"; "<tag_00001>x</tag_0000></r>"; "<fresh>x</fres></r>" ]

(* --- Document labeling ------------------------------------------------ *)

let test_labeling_intervals () =
  let doc = Test_util.fig1_doc () in
  let n = Xmlest.Document.size doc in
  check Alcotest.int "node count" 31 n;
  check Alcotest.int "max_pos" ((2 * n) - 1) (Xmlest.Document.max_pos doc);
  (* start < end for every node, all endpoints distinct. *)
  let seen = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    let s = Xmlest.Document.start_pos doc v
    and e = Xmlest.Document.end_pos doc v in
    Alcotest.(check bool) "start < end" true (s < e);
    Alcotest.(check bool) "start fresh" false (Hashtbl.mem seen s);
    Alcotest.(check bool) "end fresh" false (Hashtbl.mem seen e);
    Hashtbl.add seen s ();
    Hashtbl.add seen e ()
  done

let test_labeling_containment () =
  let doc = Test_util.fig1_doc () in
  let n = Xmlest.Document.size doc in
  (* Interval containment must coincide with tree ancestorship via parents. *)
  let rec is_anc_by_parent a d =
    let p = Xmlest.Document.parent doc d in
    p >= 0 && (p = a || is_anc_by_parent a p)
  in
  for a = 0 to n - 1 do
    for d = 0 to n - 1 do
      let by_interval = Xmlest.Document.is_ancestor doc ~anc:a ~desc:d in
      let by_parent = is_anc_by_parent a d in
      if by_interval <> by_parent then
        Alcotest.failf "ancestor mismatch for (%d, %d)" a d
    done
  done

let prop_labeling =
  QCheck.Test.make ~count:100 ~name:"labeling invariants on random trees"
    (Test_util.elem_arbitrary ~max_nodes:80 ())
    (fun e ->
      let doc = Xmlest.Document.of_elem e in
      let n = Xmlest.Document.size doc in
      let ok = ref (n = Xmlest.Elem.size e) in
      for v = 0 to n - 1 do
        let s = Xmlest.Document.start_pos doc v in
        let en = Xmlest.Document.end_pos doc v in
        if s >= en then ok := false;
        let p = Xmlest.Document.parent doc v in
        if p >= 0 then begin
          if
            not
              (Xmlest.Document.start_pos doc p < s
              && en < Xmlest.Document.end_pos doc p)
          then ok := false;
          if Xmlest.Document.level doc v <> Xmlest.Document.level doc p + 1 then
            ok := false
        end;
        if v > 0 && Xmlest.Document.start_pos doc (v - 1) >= s then ok := false;
        let last = Xmlest.Document.subtree_last doc v in
        if last < v || last >= n then ok := false
      done;
      !ok)

let test_children_and_subtree () =
  let doc = Test_util.fig1_doc () in
  let root_children = Test_util.children doc 0 in
  check Alcotest.int "root has 6 children" 6 (List.length root_children);
  List.iter
    (fun c -> check Alcotest.int "child parent" 0 (Xmlest.Document.parent doc c))
    root_children;
  check Alcotest.int "root subtree covers all" (Xmlest.Document.size doc)
    (Xmlest.Document.subtree_size doc 0)

let test_tag_index () =
  let doc = Test_util.fig1_doc () in
  let ras = Xmlest.Document.nodes_with_tag doc "RA" in
  check Alcotest.int "RA count" 10 (Array.length ras);
  Array.iter
    (fun v -> check Alcotest.string "tagged RA" "RA" (Xmlest.Document.tag doc v))
    ras;
  for k = 1 to Array.length ras - 1 do
    Alcotest.(check bool)
      "sorted" true
      (Xmlest.Document.start_pos doc ras.(k - 1)
      < Xmlest.Document.start_pos doc ras.(k))
  done;
  check Alcotest.int "unknown tag" 0
    (Array.length (Xmlest.Document.nodes_with_tag doc "zzz"))

let test_deep_tree_no_stack_overflow () =
  (* 50k-deep chain: Document.of_elem must not recurse on the OCaml stack. *)
  let rec chain k acc =
    if k = 0 then acc else chain (k - 1) (Xmlest.Elem.make "n" ~children:[ acc ])
  in
  let e = chain 50_000 (Xmlest.Elem.make "leaf") in
  let doc = Xmlest.Document.of_elem e in
  check Alcotest.int "size" 50_001 (Xmlest.Document.size doc);
  check Alcotest.int "leaf level" 50_000
    (Xmlest.Document.level doc (Xmlest.Document.size doc - 1))

(* A 100,000-deep chain through the tree parser and labeling, and through
   the streamed summary build: neither may recurse per level on the OCaml
   stack. *)
let test_deep_chain_stack_safety () =
  let depth = 100_000 in
  let b = Buffer.create (8 * depth) in
  for _ = 1 to depth do
    Buffer.add_string b "<n>"
  done;
  Buffer.add_string b "<leaf/>";
  for _ = 1 to depth do
    Buffer.add_string b "</n>"
  done;
  let xml = Buffer.contents b in
  let doc = Xmlest.Document.of_elem (parse xml) in
  check Alcotest.int "size" (depth + 1) (Xmlest.Document.size doc);
  check Alcotest.string "leaf last" "leaf" (Xmlest.Document.tag doc depth);
  check Alcotest.int "leaf level" depth (Xmlest.Document.level doc depth);
  let leaf = Xmlest.Predicate.tag "leaf" in
  let s =
    with_temp_file xml (fun path ->
        Xmlest.Summary.build_stream_file path [ Xmlest.Predicate.tag "n"; leaf ])
  in
  check (Alcotest.float 0.0) "streamed size" (float_of_int (depth + 1))
    (Xmlest.Position_histogram.total (Xmlest.Summary.population s));
  match Xmlest.Summary.level s leaf with
  | None -> Alcotest.fail "no level histogram"
  | Some h ->
    let counts = Xmlest.Level_histogram.counts h in
    check (Alcotest.float 0.0) "one leaf at the bottom" 1.0 counts.(depth);
    check Alcotest.int "streamed leaf level" depth (Array.length counts - 1)

(* The indented writer caps its indentation, so a 100,000-deep chain is
   O(n) bytes (uncapped it was Θ(depth²) and ran out of memory) and parses
   back to the same tree; [to_file] writes the same bytes as [to_string]
   through the channel, here over many 64 KiB spills. *)
let test_writer_linear_on_deep_chain () =
  let depth = 100_000 in
  let e = ref (Xmlest.Elem.make "leaf" ~attrs:[ ("k", "v") ]) in
  for _ = 1 to depth do
    e := Xmlest.Elem.make "n" ~children:[ !e ]
  done;
  let xml = Xmlest.Xml_writer.to_string !e in
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes for %d nodes" (String.length xml) (depth + 1))
    true
    (* two lines per node, each at most 32 levels of indent plus markup *)
    (String.length xml < 2 * ((2 * 32) + 12) * (depth + 1));
  Alcotest.(check bool) "parses back" true (Test_util.elem_equal !e (parse xml));
  let path = Filename.temp_file "xmlest" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xmlest.Xml_writer.to_file path !e;
      let ic = open_in_bin path in
      let written =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "to_file = to_string" true (String.equal xml written))

let test_file_roundtrip () =
  let e = Test_util.fig1 () in
  let path = Filename.temp_file "xmlest" ".xml" in
  Xmlest.Xml_writer.to_file path e;
  (match Xmlest.Xml_parser.parse_file path with
  | Ok e' -> Alcotest.(check bool) "file roundtrip" true (Test_util.elem_equal e e')
  | Error err ->
    Alcotest.failf "parse_file failed: %s"
      (Format.asprintf "%a" Xmlest.Xml_parser.pp_error err));
  Sys.remove path

(* Entry count of /proc/self/fd; any channel leaked by a failing read or
   write shows up as a higher count afterwards. *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_io_failures_close_fds () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    let before = open_fds () in
    (* The parser opens a directory fine on Linux; the subsequent read
       raises Sys_error, which must not leak the channel. *)
    let dir = Filename.temp_dir "xmlest" "" in
    (match Xmlest.Xml_parser.parse_file dir with
    | exception Sys_error _ -> ()
    | Ok _ | Error _ -> Alcotest.fail "parse_file on a directory should raise");
    Sys.rmdir dir;
    (* The writer flushes inside the protected body, so ENOSPC surfaces
       as the primary exception and the channel still closes. *)
    (if Sys.file_exists "/dev/full" then
       match Xmlest.Xml_writer.to_file "/dev/full" (Test_util.fig1 ()) with
       | exception Sys_error _ -> ()
       | () -> Alcotest.fail "to_file on /dev/full should raise");
    check Alcotest.int "no fd leaked across failing reads and writes" before
      (open_fds ())
  end

let test_writer_indentation () =
  let e =
    Xmlest.Elem.make "a"
      ~children:[ Xmlest.Elem.make "b" ~children:[ Xmlest.Elem.leaf "c" "t" ] ]
  in
  let s = Xmlest.Xml_writer.to_string e in
  Alcotest.(check bool) "child indented" true
    (let rec contains sub s i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || contains sub s (i + 1))
     in
     contains "\n  <b>" s 0 && contains "\n    <c>" s 0);
  let compact = Xmlest.Xml_writer.to_string ~indent:false e in
  Alcotest.(check bool) "compact has no inner newlines" true
    (String.split_on_char '\n' compact |> List.length <= 3)

(* Exactly one newline follows the declaration, from both writers, and
   one ends the document. *)
let test_writer_one_element () =
  let expected = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>\n" in
  let e = Xmlest.Elem.make "a" in
  check Alcotest.string "to_string" expected (Xmlest.Xml_writer.to_string e);
  let path = Filename.temp_file "xmlest" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xmlest.Xml_writer.to_file path e;
      let ic = open_in_bin path in
      let written =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            really_input_string ic (in_channel_length ic))
      in
      check Alcotest.string "to_file" expected written)

(* --- Interval_ops ------------------------------------------------------ *)

let test_nesting_detection () =
  let doc = Test_util.fig1_doc () in
  let nodes tag = Xmlest.Document.nodes_with_tag doc tag in
  Alcotest.(check bool)
    "faculty no-overlap" false
    (Xmlest.Interval_ops.has_nesting doc (nodes "faculty"));
  let nested = Xmlest.Document.of_elem (Test_util.nested ~depth:4 ~fanout:2) in
  Alcotest.(check bool)
    "sections nest" true
    (Xmlest.Interval_ops.has_nesting nested
       (Xmlest.Document.nodes_with_tag nested "section"))

let test_nesting_counts () =
  let doc = Xmlest.Document.of_elem (Test_util.nested ~depth:3 ~fanout:2) in
  let sections = Xmlest.Document.nodes_with_tag doc "section" in
  (* depth-3 binary: 1 + 2 + 4 = 7 sections; ancestor pairs: level-2 nodes
     have 1 section ancestor (2×1), level-3 have 2 (4×2) = 10. *)
  check Alcotest.int "sections" 7 (Array.length sections);
  check Alcotest.int "nesting pairs" 10
    (Test_util.nesting_pairs doc sections)

let prop_nesting_matches_brute_force =
  QCheck.Test.make ~count:150 ~name:"count_nesting_pairs = brute force"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:40 ())
    (fun (_, doc, t1, _) ->
      let nodes = Xmlest.Document.nodes_with_tag doc t1 in
      let expected =
        Test_util.brute_force_pairs doc (Xmlest.Predicate.tag t1)
          (Xmlest.Predicate.tag t1) ~axis:`Descendant
      in
      Test_util.nesting_pairs doc nodes = expected)

(* --- Nearest-ancestor resolver ------------------------------------------ *)

(* A random tree and three random node sets over it, each of random
   density (possibly empty or the whole document). *)
let doc_sets_arbitrary =
  QCheck.make
    ~print:(fun (e, _, sets) ->
      Format.asprintf "sets %s in %a"
        (String.concat " | "
           (Array.to_list
              (Array.map
                 (fun s ->
                   String.concat ","
                     (List.filteri (fun v _ -> s.(v)) (List.init (Array.length s) string_of_int)))
                 sets)))
        Test_util.pp_elem e)
    (fun st ->
      let e = Test_util.elem_gen ~max_nodes:40 () st in
      let doc = Xmlest.Document.of_elem e in
      let n = Xmlest.Document.size doc in
      let sets =
        Array.init 3 (fun _ ->
            let density = Random.State.int st 5 in
            Array.init n (fun _ -> Random.State.int st 4 < density))
      in
      (e, doc, sets))

(* Fed in pre-order and in reverse post-order, with each node's id as its
   payload, the resolver must report, per set, exactly the parent-chain
   nearest strict ancestor, leave the stack of open matches at the node's
   ancestors-or-self count, and count the nesting pairs both ways: summed
   over the chain and by brute force. *)
let prop_resolver_matches_parent_chain =
  QCheck.Test.make ~count:200 ~name:"resolver = parent-chain nearest"
    doc_sets_arbitrary
    (fun (_, doc, sets) ->
      let n = Xmlest.Document.size doc in
      let k = Array.length sets in
      (* reference, per set: nearest strict set-ancestor and the number of
         set-ancestors, both by parent chain *)
      let nearest = Array.init k (fun _ -> Array.make n (-1)) in
      let above = Array.init k (fun _ -> Array.make n 0) in
      for u = 0 to k - 1 do
        for v = 1 to n - 1 do
          let p = Xmlest.Document.parent doc v in
          let hit = sets.(u).(p) in
          nearest.(u).(v) <- (if hit then p else nearest.(u).(p));
          above.(u).(v) <- (above.(u).(p) + if hit then 1 else 0)
        done
      done;
      let pairs u =
        let total = ref 0 in
        Array.iteri (fun v m -> if m then total := !total + above.(u).(v)) sets.(u);
        !total
      in
      let brute_pairs u =
        let total = ref 0 in
        for a = 0 to n - 1 do
          for d = 0 to n - 1 do
            if sets.(u).(a) && sets.(u).(d) && Xmlest.Document.is_ancestor doc ~anc:a ~desc:d
            then incr total
          done
        done;
        !total
      in
      let run order =
        let r = Xmlest.Interval_ops.resolver k in
        let matched = Array.make k 0 in
        let ok = ref true in
        Array.iter
          (fun v ->
            let nmatched = ref 0 in
            for u = 0 to k - 1 do
              if sets.(u).(v) then begin
                matched.(!nmatched) <- u;
                incr nmatched
              end
            done;
            let reported = Array.make k (-1) in
            Xmlest.Interval_ops.resolve r
              ~start_pos:(Xmlest.Document.start_pos doc v)
              ~end_pos:(Xmlest.Document.end_pos doc v)
              ~cell:v ~matched ~nmatched:!nmatched
              ~on_nearest:(fun u ~covered ~covering ->
                if covered <> v || reported.(u) >= 0 then ok := false;
                reported.(u) <- covering);
            for u = 0 to k - 1 do
              if reported.(u) <> nearest.(u).(v) then ok := false
            done)
          order;
        !ok
        && List.for_all
             (fun u ->
               Xmlest.Interval_ops.nesting_pairs r u = pairs u
               && Xmlest.Interval_ops.nesting_pairs r u = brute_pairs u)
             (List.init k Fun.id)
      in
      let pre = Array.init n Fun.id in
      let rev_post = Array.copy pre in
      Array.sort
        (fun a b ->
          Int.compare (Xmlest.Document.end_pos doc b) (Xmlest.Document.end_pos doc a))
        rev_post;
      run pre && run rev_post)

let prop_has_nesting_agrees_with_pair_count =
  QCheck.Test.make ~count:150 ~name:"has_nesting = (nesting pairs > 0)"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:40 ())
    (fun (_, doc, t1, _) ->
      let nodes = Xmlest.Document.nodes_with_tag doc t1 in
      Bool.equal
        (Xmlest.Interval_ops.has_nesting doc nodes)
        (Test_util.nesting_pairs doc nodes > 0))

(* --- Tag-id index ------------------------------------------------------- *)

let test_tag_id_index () =
  let doc = Test_util.fig1_doc () in
  let n = Xmlest.Document.num_tags doc in
  check Alcotest.int "num_tags = distinct tags"
    (List.length (Xmlest.Document.distinct_tags doc))
    n;
  check
    Alcotest.(list int)
    "ids of the distinct tags are 0 .. num_tags - 1"
    (List.init n Fun.id)
    (List.sort Int.compare
       (List.filter_map (Xmlest.Document.lookup_tag_id doc)
          (Xmlest.Document.distinct_tags doc)));
  check Alcotest.(option int) "unknown tag" None
    (Xmlest.Document.lookup_tag_id doc "nosuchtag")

(* --- Doc_stats --------------------------------------------------------- *)

let test_doc_stats () =
  let doc = Test_util.fig1_doc () in
  let stats = Xmlest.Doc_stats.tag_stats doc in
  let find tag = List.find (fun s -> s.Xmlest.Doc_stats.tag = tag) stats in
  let faculty = find "faculty" in
  check Alcotest.int "faculty count" 3 faculty.Xmlest.Doc_stats.count;
  Alcotest.(check bool)
    "faculty no overlap" false faculty.Xmlest.Doc_stats.overlapping;
  let ra = find "RA" in
  check Alcotest.int "RA count" 10 ra.Xmlest.Doc_stats.count;
  check Alcotest.int "RA level" 2 ra.Xmlest.Doc_stats.min_level;
  check Alcotest.int "RA level max" 2 ra.Xmlest.Doc_stats.max_level

let () =
  Alcotest.run "xmldb"
    [
      ( "elem",
        [
          Alcotest.test_case "size and depth" `Quick test_elem_size_depth;
          Alcotest.test_case "predicate counts" `Quick test_elem_counts;
          Alcotest.test_case "tag counts" `Quick test_elem_tag_counts;
          Alcotest.test_case "attributes" `Quick test_elem_attr;
          Alcotest.test_case "pre-order fold" `Quick test_elem_fold_preorder;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple document" `Quick test_parse_simple;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata and comments" `Quick test_parse_cdata_comments;
          Alcotest.test_case "prolog" `Quick test_parse_prolog;
          Alcotest.test_case "nested same tag" `Quick test_parse_nested_same_tag;
          Alcotest.test_case "malformed inputs" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_parse_error_position;
          Alcotest.test_case "fixed roundtrip" `Quick test_roundtrip_fixed;
          Alcotest.test_case "escaping" `Quick test_escape;
          qcheck prop_roundtrip;
          qcheck prop_roundtrip_compact;
          qcheck prop_parser_never_crashes;
          qcheck prop_parser_never_crashes_xmlish;
          Alcotest.test_case "bad character references" `Quick test_bad_char_refs;
          qcheck prop_writer_inputs_match_oracle;
          qcheck prop_soup_matches_oracle;
          Alcotest.test_case "refill edge" `Quick test_refill_edge;
          Alcotest.test_case "more names than the intern table" `Quick
            test_many_distinct_names;
        ] );
      ( "document",
        [
          Alcotest.test_case "interval labels" `Quick test_labeling_intervals;
          Alcotest.test_case "containment = ancestorship" `Quick
            test_labeling_containment;
          Alcotest.test_case "children and subtree" `Quick test_children_and_subtree;
          Alcotest.test_case "tag index" `Quick test_tag_index;
          Alcotest.test_case "deep tree (50k levels)" `Quick
            test_deep_tree_no_stack_overflow;
          Alcotest.test_case "deep chain (100k levels)" `Quick
            test_deep_chain_stack_safety;
          qcheck prop_labeling;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "indented writer O(n) on a 100k chain" `Quick
            test_writer_linear_on_deep_chain;
          Alcotest.test_case "failing io closes fds" `Quick
            test_io_failures_close_fds;
          Alcotest.test_case "writer indentation" `Quick test_writer_indentation;
          Alcotest.test_case "writer: one element, one newline after the declaration"
            `Quick test_writer_one_element;
        ] );
      ( "interval_ops",
        [
          Alcotest.test_case "nesting detection" `Quick test_nesting_detection;
          Alcotest.test_case "nesting counts" `Quick test_nesting_counts;
          qcheck prop_nesting_matches_brute_force;
          qcheck prop_resolver_matches_parent_chain;
          qcheck prop_has_nesting_agrees_with_pair_count;
          Alcotest.test_case "tag-id index" `Quick test_tag_id_index;
        ] );
      ("doc_stats", [ Alcotest.test_case "fig1 stats" `Quick test_doc_stats ]);
    ]
