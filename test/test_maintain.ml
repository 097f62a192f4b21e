(* Maintenance subsystem tests: document edit helpers, exact-vs-rebuild
   bit-identity for delete/append/replace streams, the interior-insert
   drift bound, catalog counter behavior under maintenance, and the
   update line format. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check
let qcheck = Test_util.to_alcotest (* seeded: see test_util.ml *)
let tagp = Xmlest.Predicate.tag

module D = Xmlest.Document
module E = Xmlest.Elem
module U = Xmlest.Update
module Sm = Xmlest.Splitmix

(* A small random subtree drawn from a Splitmix stream (Test_util's
   [random_elem] wants a [Random.State.t]; update streams here are seeded
   from Splitmix so runs shrink deterministically). *)
let gen_elem rng n =
  let tags = [| "a"; "b"; "c"; "d"; "e" |] in
  let rec go budget =
    let tag = Sm.choose rng tags in
    if budget <= 1 then (E.make tag, 1)
    else begin
      let kids = ref [] and used = ref 1 in
      let want = Sm.int rng 3 in
      for _ = 1 to want do
        if !used < budget then begin
          let k, u = go (budget - !used) in
          kids := k :: !kids;
          used := !used + u
        end
      done;
      (E.make tag ~children:(List.rev !kids), !used)
    end
  in
  fst (go (Int.max 1 n))

(* --- Elem-level edit mirrors (specification for the Document helpers) -- *)

(* Insert [sub] as the [index]-th child of the node with pre-order index
   [parent] — the reference semantics of [Document.insert_subtree]. *)
let elem_insert root ~parent ~index sub =
  let c = ref (-1) in
  let rec go e =
    incr c;
    let me = !c in
    let kids = List.fold_left (fun acc k -> go k :: acc) [] e.E.children in
    let kids = List.rev kids in
    let kids =
      if me <> parent then kids
      else begin
        let n = List.length kids in
        let at = if index < 0 || index >= n then n else index in
        List.concat [ List.filteri (fun i _ -> i < at) kids; [ sub ];
                      List.filteri (fun i _ -> i >= at) kids ]
      end
    in
    E.make ~attrs:e.E.attrs ~text:e.E.text ~children:kids e.E.tag
  in
  go root

(* Remove the subtree rooted at pre-order index [node] (must not be 0). *)
let elem_delete root ~node =
  let c = ref (-1) in
  let rec go e =
    incr c;
    let me = !c in
    let kids = List.fold_left (fun acc k -> go k :: acc) [] e.E.children in
    let kids = List.rev (List.filter_map (fun k -> k) kids) in
    if me = node then None
    else Some (E.make ~attrs:e.E.attrs ~text:e.E.text ~children:kids e.E.tag)
  in
  match go root with
  | Some e -> e
  | None -> invalid_arg "elem_delete: cannot delete the root"

(* Full structural + label equality of two documents. *)
let docs_equal a b =
  D.size a = D.size b
  && D.max_pos a = D.max_pos b
  && begin
    let ok = ref true in
    for v = 0 to D.size a - 1 do
      if
        not
          (String.equal (D.tag a v) (D.tag b v)
          && String.equal (D.text a v) (D.text b v)
          && List.length (D.attrs a v) = List.length (D.attrs b v)
          && D.start_pos a v = D.start_pos b v
          && D.end_pos a v = D.end_pos b v
          && D.level a v = D.level b v
          && D.parent a v = D.parent b v
          && D.subtree_last a v = D.subtree_last b v)
      then ok := false
    done;
    !ok
  end

(* Structure-only equality (labels may differ: deletes leave holes). *)
let docs_equal_structure a b =
  D.size a = D.size b
  && begin
    let ok = ref true in
    for v = 0 to D.size a - 1 do
      if
        not
          (String.equal (D.tag a v) (D.tag b v)
          && String.equal (D.text a v) (D.text b v)
          && D.level a v = D.level b v
          && D.parent a v = D.parent b v
          && D.subtree_last a v = D.subtree_last b v)
      then ok := false
    done;
    !ok
  end

(* Interval labels must stay consistent with the parent structure: parents
   strictly contain children, siblings stay disjoint and ordered. *)
let labels_consistent doc =
  let ok = ref true in
  for v = 0 to D.size doc - 1 do
    if D.start_pos doc v >= D.end_pos doc v then ok := false;
    let p = D.parent doc v in
    if p >= 0 then
      if not (D.start_pos doc p < D.start_pos doc v
             && D.end_pos doc v < D.end_pos doc p)
      then ok := false;
    if v > 0 && D.start_pos doc v <= D.start_pos doc (v - 1) then ok := false
  done;
  !ok

(* --- Document edit helper unit tests ----------------------------------- *)

let sample () =
  E.make "r"
    ~children:
      [ E.make "x"; E.make "y" ~children:[ E.make "z"; E.make "x" ] ]

let test_insert_matches_of_elem () =
  let doc = D.of_elem (sample ()) in
  let sub = E.make "w" ~children:[ E.make "v" ] in
  List.iter
    (fun (parent, index) ->
      let got, root = D.insert_subtree doc ~parent ~index sub in
      let want = D.of_elem (elem_insert (sample ()) ~parent ~index sub) in
      Alcotest.(check bool)
        (Printf.sprintf "insert under %d at %d" parent index)
        true (docs_equal got want);
      check Alcotest.string "inserted root tag" "w" (D.tag got root))
    [ (0, 0); (0, 1); (0, 99); (2, 0); (2, 2); (1, 0); (4, 0) ]

let test_insert_new_tags_extend_interning () =
  let doc = D.of_elem (sample ()) in
  let doc', _ = D.insert_subtree doc ~parent:0 ~index:99 (E.make "brandnew") in
  check Alcotest.int "old ids stable"
    (match D.lookup_tag_id doc "y" with Some i -> i | None -> -1)
    (match D.lookup_tag_id doc' "y" with Some i -> i | None -> -1);
  check Alcotest.int "new tag interned" 1 (D.tag_count doc' "brandnew");
  check Alcotest.int "original untouched" 5 (D.size doc)

let test_delete_preserves_labels () =
  let doc = D.of_elem (sample ()) in
  let got = D.delete_subtree doc 2 in
  let want = D.of_elem (elem_delete (sample ()) ~node:2) in
  Alcotest.(check bool) "structure" true (docs_equal_structure got want);
  check Alcotest.int "max_pos unchanged" (D.max_pos doc) (D.max_pos got);
  (* Survivors keep their original positions. *)
  check Alcotest.int "root start" (D.start_pos doc 0) (D.start_pos got 0);
  check Alcotest.int "root end" (D.end_pos doc 0) (D.end_pos got 0);
  check Alcotest.int "x start" (D.start_pos doc 1) (D.start_pos got 1);
  Alcotest.(check bool) "labels consistent" true (labels_consistent got);
  Alcotest.check_raises "root delete rejected"
    (Invalid_argument "Document.delete_subtree: node is the root or out of range")
    (fun () -> ignore (D.delete_subtree doc 0))

let test_replace_helpers () =
  let doc = D.of_elem (sample ()) in
  let doc' = D.replace_text doc 1 "hello" in
  check Alcotest.string "new text" "hello" (D.text doc' 1);
  check Alcotest.string "old untouched" "" (D.text doc 1);
  let doc'' = D.replace_attrs doc' 2 [ ("k", "v") ] in
  check Alcotest.int "attr count" 1 (List.length (D.attrs doc'' 2))

let prop_insert_matches_of_elem =
  QCheck.Test.make ~name:"insert_subtree = of_elem of edited tree" ~count:200
    QCheck.(
      pair (Test_util.elem_arbitrary ~max_nodes:30 ()) (triple small_nat small_nat (int_bound 1000)))
    (fun (elem, (pchoice, index, seed)) ->
      let doc = D.of_elem elem in
      let parent = pchoice mod D.size doc in
      let rng = Xmlest.Splitmix.create seed in
      let sub = gen_elem rng 5 in
      let got, _ = D.insert_subtree doc ~parent ~index sub in
      let want = D.of_elem (elem_insert elem ~parent ~index sub) in
      docs_equal got want)

let prop_delete_structure_and_labels =
  QCheck.Test.make ~name:"delete_subtree structure + label preservation"
    ~count:200
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:30 ()) small_nat)
    (fun (elem, nchoice) ->
      let doc = D.of_elem elem in
      QCheck.assume (D.size doc > 1);
      let node = 1 + (nchoice mod (D.size doc - 1)) in
      let got = D.delete_subtree doc node in
      let want = D.of_elem (elem_delete elem ~node) in
      docs_equal_structure got want
      && labels_consistent got
      && D.max_pos got = D.max_pos doc)

(* --- Summary maintenance: exact streams are bit-identical -------------- *)

let base_preds () =
  [ Xmlest.Predicate.True; tagp "a"; tagp "b"; tagp "c" ]

(* [?domains] selects the build path the maintained summary comes from:
   the default sequential sweep or the partitioned one.  Maintenance
   invariants must hold identically for both — the rebuild reference is
   always sequential, so the parallel variants below also cross-check the
   two construction paths through the whole apply pipeline. *)
let summary_of ?domains doc =
  let gs = Int.min 8 (D.max_pos doc + 1) in
  Xmlest.Summary.build ~grid_size:gs ?domains doc (base_preds ())

let summaries_identical a b =
  String.equal (Xmlest.Summary.to_string a) (Xmlest.Summary.to_string b)

(* The rightmost spine: the only parents an end-of-document append can
   target. *)
let spine doc =
  let rec go v acc =
    let last = D.subtree_last doc v in
    if last = v then v :: acc
    else
      let rec last_child u prev =
        if u > last then prev else last_child (D.subtree_last doc u + 1) u
      in
      go (last_child (v + 1) (v + 1)) (v :: acc)
  in
  List.rev (go 0 [])

let random_append rng doc =
  let sp = Array.of_list (spine doc) in
  let parent = Xmlest.Splitmix.choose rng sp in
  U.Insert { parent; index = max_int; subtree = gen_elem rng 4 }

let random_delete rng doc =
  U.Delete { node = 1 + Xmlest.Splitmix.int rng (D.size doc - 1) }

let random_replace rng _doc_size doc =
  let node = Xmlest.Splitmix.int rng (D.size doc) in
  if Xmlest.Splitmix.bool rng 0.5 then
    U.Replace_text { node; text = Xmlest.Splitmix.choose rng [| ""; "x"; "hello" |] }
  else
    U.Replace_attrs
      { node; attrs = (if Xmlest.Splitmix.bool rng 0.5 then [] else [ ("k", "v") ]) }

(* Generate [k] updates, each drawn against the document as edited so
   far; [pick] may return None to stop early (e.g. nothing left to
   delete). *)
let stream ~k ~pick rng doc =
  let rec go doc k acc =
    if k = 0 then List.rev acc
    else
      match pick rng doc with
      | None -> List.rev acc
      | Some u -> go (U.apply_doc doc u) (k - 1) (u :: acc)
  in
  go doc k []

let exact_stream_prop ~name ?domains pick =
  QCheck.Test.make ~name ~count:100
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:40 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc = D.of_elem elem in
      let s = summary_of ?domains doc in
      let rng = Xmlest.Splitmix.create seed in
      let ups = stream ~k:4 ~pick rng doc in
      QCheck.assume (List.length ups > 0);
      Xmlest.Summary.apply ~policy:`Never s ups;
      let doc' = List.fold_left U.apply_doc doc ups in
      let s' =
        Xmlest.Summary.build ~grid:(Xmlest.Summary.grid s) doc' (base_preds ())
      in
      summaries_identical s s')

let prop_delete_stream_exact =
  exact_stream_prop ~name:"delete-only stream: apply = same-grid rebuild"
    (fun rng doc -> if D.size doc <= 1 then None else Some (random_delete rng doc))

let prop_append_stream_exact =
  exact_stream_prop ~name:"append-only stream: apply = same-grid rebuild"
    (fun rng doc -> Some (random_append rng doc))

let mixed_pick rng doc =
  match Xmlest.Splitmix.int rng 3 with
  | 0 when D.size doc > 1 -> Some (random_delete rng doc)
  | 1 -> Some (random_append rng doc)
  | _ -> Some (random_replace rng (D.size doc) doc)

let prop_mixed_exact_stream =
  exact_stream_prop ~name:"delete/append/replace stream: apply = rebuild"
    mixed_pick

(* The same exact-stream invariants, with the maintained summary built by
   the partitioned sweep: the updates apply to a parallel-built summary
   and the result must still be bit-identical to a sequential same-grid
   rebuild of the edited document. *)
let prop_delete_stream_exact_parallel =
  exact_stream_prop ~domains:4
    ~name:"delete-only stream, parallel-built summary: apply = rebuild"
    (fun rng doc -> if D.size doc <= 1 then None else Some (random_delete rng doc))

let prop_append_stream_exact_parallel =
  exact_stream_prop ~domains:4
    ~name:"append-only stream, parallel-built summary: apply = rebuild"
    (fun rng doc -> Some (random_append rng doc))

let prop_mixed_exact_stream_parallel =
  exact_stream_prop ~domains:4
    ~name:"mixed stream, parallel-built summary: apply = rebuild" mixed_pick

(* --- Interior inserts: drift-bounded, totals exact --------------------- *)

let interior_insert_drift_prop ~name ?domains () =
  QCheck.Test.make ~name ~count:100
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:40 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc = D.of_elem elem in
      let s = summary_of ?domains doc in
      let rng = Xmlest.Splitmix.create seed in
      let ups =
        stream ~k:4
          ~pick:(fun rng doc ->
            let parent = Xmlest.Splitmix.int rng (D.size doc) in
            let index = Xmlest.Splitmix.int rng 3 in
            Some (U.Insert { parent; index; subtree = gen_elem rng 4 }))
          rng doc
      in
      QCheck.assume (List.length ups > 0);
      Xmlest.Summary.apply ~policy:`Never s ups;
      let doc' = List.fold_left U.apply_doc doc ups in
      let s' =
        Xmlest.Summary.build ~grid:(Xmlest.Summary.grid s) doc' (base_preds ())
      in
      let report =
        match Xmlest.Summary.staleness s with
        | Some r -> r
        | None -> QCheck.Test.fail_report "no staleness report after apply"
      in
      let grid = Xmlest.Summary.grid s in
      List.for_all
        (fun pred ->
          let name = Xmlest.Predicate.name pred in
          let h = Xmlest.Summary.histogram s pred in
          let h' = Xmlest.Summary.histogram s' pred in
          let drift =
            match List.assoc_opt name report.Xmlest.Staleness.per_predicate with
            | Some c -> c.Xmlest.Staleness.drift_mass
            | None -> 0.0
          in
          let l1 = ref 0.0 in
          Xmlest.Grid.iter_upper grid (fun ~i ~j ->
              l1 :=
                !l1
                +. Float.abs
                     (Xmlest.Position_histogram.get h ~i ~j
                     -. Xmlest.Position_histogram.get h' ~i ~j));
          !l1 <= (2.0 *. drift) +. 1e-9
          && Float.equal
               (Xmlest.Position_histogram.total h)
               (Xmlest.Position_histogram.total h')
          && (* level histograms stay exact under interior inserts *)
          (match (Xmlest.Summary.level s pred, Xmlest.Summary.level s' pred) with
          | Some a, Some b ->
            let ca = Xmlest.Level_histogram.counts a in
            let cb = Xmlest.Level_histogram.counts b in
            Array.length ca = Array.length cb
            && Array.for_all2 Float.equal ca cb
          | None, None -> true
          | _ -> false))
        (base_preds ()))

let prop_interior_insert_drift_bound =
  interior_insert_drift_prop
    ~name:"interior inserts: L1 <= 2*drift, totals exact" ()

let prop_interior_insert_drift_bound_parallel =
  interior_insert_drift_prop ~domains:4
    ~name:"interior inserts on a parallel-built summary: drift bound holds"
    ()

(* --- Staleness policies ------------------------------------------------ *)

let test_staleness_policies () =
  let doc = D.of_elem (Test_util.fig1 ()) in
  let s = summary_of doc in
  Alcotest.(check bool) "fresh summary has no report" true
    (Xmlest.Summary.staleness s = None);
  (* An interior insert accrues drift... *)
  Xmlest.Summary.apply ~policy:`Never s
    [ U.Insert { parent = 0; index = 0; subtree = E.make "a" } ];
  let r1 =
    match Xmlest.Summary.staleness s with
    | Some r -> r
    | None -> Alcotest.fail "expected staleness report"
  in
  Alcotest.(check bool) "interior insert accrues drift" true
    (r1.Xmlest.Staleness.drift_mass > 0.0);
  check Alcotest.int "one update counted" 1 r1.Xmlest.Staleness.updates_since_build;
  (* ...and `Always rebuilds, resetting the engine. *)
  Xmlest.Summary.apply ~policy:`Always s
    [ U.Insert { parent = 0; index = 0; subtree = E.make "a" } ];
  Alcotest.(check bool) "rebuild resets the engine" true
    (Xmlest.Summary.staleness s = None);
  (* After a rebuild the summary equals a fresh build of its document. *)
  let doc' =
    match Xmlest.Summary.document s with
    | Some d -> d
    | None -> Alcotest.fail "document survives maintenance"
  in
  let fresh =
    Xmlest.Summary.build
      ~grid_size:(Xmlest.Summary.grid s).Xmlest.Grid.size doc' (base_preds ())
  in
  Alcotest.(check bool) "rebuilt = fresh build" true (summaries_identical s fresh)

let test_threshold_policy_triggers () =
  let doc = D.of_elem (Test_util.nested ~depth:4 ~fanout:3) in
  let s = summary_of doc in
  (* Repeated interior inserts at the front accumulate drift mass well
     past the live mass; a tight threshold must force a rebuild. *)
  let sub = E.make "a" ~children:[ E.make "b" ] in
  Xmlest.Summary.apply ~policy:(`Threshold 0.01) s
    [ U.Insert { parent = 0; index = 0; subtree = sub };
      U.Insert { parent = 0; index = 0; subtree = sub };
      U.Insert { parent = 0; index = 0; subtree = sub } ];
  Alcotest.(check bool) "threshold rebuild happened" true
    (Xmlest.Summary.staleness s = None)

(* --- Catalog behavior under maintenance -------------------------------- *)

let catalog_doc () =
  D.of_elem
    (E.make "r"
       ~children:
         [ E.make "a";
           E.make "a" ~children:[ E.make "b" ];
           E.make "b";
           E.make "a" ~children:[ E.make "b" ] ])

let test_catalog_recomputes_after_update () =
  let doc = catalog_doc () in
  let s = Xmlest.Summary.build ~grid_size:4 doc [ tagp "a"; tagp "b" ] in
  let pat = Xmlest.Pattern_parser.pattern_exn "//a//b" in
  let cat = Xmlest.Summary.hist_catalog s in
  (* Force coefficient memoization for both predicates (an estimate may
     route through the no-overlap path and never touch coefficients). *)
  let coefs key = Xmlest.Hist_catalog.descendant_coefficients cat key in
  ignore (coefs "tag=a");
  ignore (coefs "tag=a");
  ignore (coefs "tag=b");
  ignore (coefs "tag=b");
  let c0 = Xmlest.Hist_catalog.counters cat in
  Alcotest.(check bool) "warm lookups hit" true (c0.Xmlest.Hist_catalog.hits > 0);
  (* Delete the leaf <a> (node 1): only a's histogram is touched. *)
  Xmlest.Summary.apply ~policy:`Never s [ U.Delete { node = 1 } ];
  ignore (coefs "tag=a");
  let c1 = Xmlest.Hist_catalog.counters cat in
  Alcotest.(check bool) "stale coefficients recomputed, not hit" true
    (c1.Xmlest.Hist_catalog.recomputes > c0.Xmlest.Hist_catalog.recomputes);
  check Alcotest.int "recompute is not a hit" c0.Xmlest.Hist_catalog.hits
    c1.Xmlest.Hist_catalog.hits;
  ignore (coefs "tag=b");
  let c2 = Xmlest.Hist_catalog.counters cat in
  Alcotest.(check bool) "untouched histogram still hits" true
    (c2.Xmlest.Hist_catalog.hits > c1.Xmlest.Hist_catalog.hits);
  (* And the estimate now reflects the smaller document exactly. *)
  let doc' = D.delete_subtree doc 1 in
  let fresh =
    Xmlest.Summary.build ~grid:(Xmlest.Summary.grid s) doc' [ tagp "a"; tagp "b" ]
  in
  check (Alcotest.float 1e-9) "estimate matches rebuild"
    (Xmlest.Summary.estimate fresh pat)
    (Xmlest.Summary.estimate s pat)

let counters_monotone (a : Xmlest.Hist_catalog.counters)
    (b : Xmlest.Hist_catalog.counters) =
  b.Xmlest.Hist_catalog.hits >= a.Xmlest.Hist_catalog.hits
  && b.Xmlest.Hist_catalog.misses >= a.Xmlest.Hist_catalog.misses
  && b.Xmlest.Hist_catalog.recomputes >= a.Xmlest.Hist_catalog.recomputes

let prop_catalog_counters_monotone =
  QCheck.Test.make ~name:"catalog counters stay monotone under maintenance"
    ~count:60
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:30 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc = D.of_elem elem in
      let s = summary_of doc in
      let pat = Xmlest.Pattern_parser.pattern_exn "//a//b" in
      let rng = Xmlest.Splitmix.create seed in
      let prev = ref (Xmlest.Hist_catalog.counters (Xmlest.Summary.hist_catalog s)) in
      let ok = ref true in
      for _ = 1 to 6 do
        (match Xmlest.Splitmix.int rng 3 with
        | 0 -> ignore (Xmlest.Summary.estimate s pat)
        | 1 ->
          let d =
            match Xmlest.Summary.document s with Some d -> d | None -> doc
          in
          Xmlest.Summary.apply ~policy:`Never s [ random_append rng d ]
        | _ ->
          let d =
            match Xmlest.Summary.document s with Some d -> d | None -> doc
          in
          if D.size d > 1 then
            Xmlest.Summary.apply ~policy:`Never s [ random_delete rng d ]);
        let cur = Xmlest.Hist_catalog.counters (Xmlest.Summary.hist_catalog s) in
        if not (counters_monotone !prev cur) then ok := false;
        prev := cur
      done;
      !ok)

(* --- Update line format ------------------------------------------------ *)

let test_update_lines_round_trip () =
  let ups =
    [ U.Delete { node = 7 };
      U.Insert
        { parent = 3;
          index = 1;
          subtree =
            E.make "article" ~attrs:[ ("key", "x<&>\"y") ] ~text:"a & b < c"
              ~children:[ E.make "title" ]
        };
      U.Replace_text { node = 2; text = "hello world" };
      U.Replace_attrs { node = 4; attrs = [ ("k", "v"); ("k2", "w") ] }
    ]
  in
  List.iter
    (fun u ->
      match U.parse (U.to_line u) with
      | Ok u' -> check Alcotest.string "round trip" (U.to_line u) (U.to_line u')
      | Error e -> Alcotest.fail e)
    ups;
  Alcotest.(check bool) "bad op rejected" true
    (match U.parse "frobnicate 3" with Ok _ -> false | Error _ -> true);
  Alcotest.(check bool) "bad xml rejected" true
    (match U.parse "insert 0 0 <unclosed" with Ok _ -> false | Error _ -> true)

(* --- REPL maintenance commands ----------------------------------------- *)

let test_repl_maintenance_commands () =
  let state = Xmlest.Repl.create () in
  let run cmd = Xmlest.Repl.execute state cmd in
  let has out sub = Test_util.contains_substring out sub in
  Alcotest.(check bool) "no summary yet" true
    (has (run "staleness") "error: no summary");
  ignore (run "gen staff 0.5");
  ignore (run "summarize 8");
  Alcotest.(check bool) "summary info renders" true
    (let out = run "summary info" in
     has out "grid: 8x8 uniform" && has out "predicates:"
     && has out "staleness: fresh");
  Alcotest.(check bool) "fresh staleness" true
    (has (run "staleness") "no updates");
  Alcotest.(check bool) "delete applies" true
    (has (run "update delete 3") "applied");
  Alcotest.(check bool) "staleness reports" true
    (has (run "staleness") "update");
  Alcotest.(check bool) "insert with spaces in xml" true
    (has (run "update insert 0 0 <employee><name>Jo Po</name></employee>") "applied");
  Alcotest.(check bool) "exact runs on updated doc" true
    (has (run "exact //employee//name") "matches");
  Alcotest.(check bool) "bad update rejected" true
    (has (run "update frobnicate 1") "error");
  Alcotest.(check bool) "usage on bare update" true
    (has (run "update") "usage");
  Alcotest.(check bool) "usage on bare summary" true
    (has (run "summary") "usage")

(* --- Loaded summaries cannot be maintained ----------------------------- *)

let test_loaded_summary_rejects_apply () =
  let doc = D.of_elem (sample ()) in
  let s = Xmlest.Summary.build ~grid_size:4 doc [ tagp "x" ] in
  let loaded = Test_util.reopened s in
  Alcotest.(check bool) "apply raises" true
    (try
       Xmlest.Summary.apply loaded [ U.Delete { node = 1 } ];
       false
     with Failure _ -> true)

let () =
  Alcotest.run "maintain"
    [
      ( "document-edits",
        [
          Alcotest.test_case "insert matches of_elem" `Quick
            test_insert_matches_of_elem;
          Alcotest.test_case "insert interns new tags" `Quick
            test_insert_new_tags_extend_interning;
          Alcotest.test_case "delete preserves labels" `Quick
            test_delete_preserves_labels;
          Alcotest.test_case "replace helpers" `Quick test_replace_helpers;
          qcheck prop_insert_matches_of_elem;
          qcheck prop_delete_structure_and_labels;
        ] );
      ( "exact-maintenance",
        [
          qcheck prop_delete_stream_exact;
          qcheck prop_append_stream_exact;
          qcheck prop_mixed_exact_stream;
          qcheck prop_delete_stream_exact_parallel;
          qcheck prop_append_stream_exact_parallel;
          qcheck prop_mixed_exact_stream_parallel;
        ] );
      ( "drift",
        [
          qcheck prop_interior_insert_drift_bound;
          qcheck prop_interior_insert_drift_bound_parallel;
          Alcotest.test_case "staleness policies" `Quick test_staleness_policies;
          Alcotest.test_case "threshold triggers rebuild" `Quick
            test_threshold_policy_triggers;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "update recomputes coefficients" `Quick
            test_catalog_recomputes_after_update;
          qcheck prop_catalog_counters_monotone;
        ] );
      ( "update-format",
        [
          Alcotest.test_case "line round trip" `Quick test_update_lines_round_trip;
          Alcotest.test_case "loaded summary rejects apply" `Quick
            test_loaded_summary_rejects_apply;
        ] );
      ( "repl",
        [
          Alcotest.test_case "maintenance commands" `Quick
            test_repl_maintenance_commands;
        ] );
    ]
