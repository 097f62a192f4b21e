(* Maintenance subsystem tests: in-place document edits and copies,
   exact-vs-rebuild bit-identity for every edit class (delete, append,
   interior insert, replace) and mixed streams, rebuild policies and
   rejected batches, the summary's private working copy and the estimate
   contract under maintenance, catalog counter behavior under
   maintenance, and the update line format. *)

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

(* Replace the text or the attributes of the node with pre-order index
   [node]. *)
let elem_replace root ~node ?text ?attrs () =
  let c = ref (-1) in
  let rec go e =
    incr c;
    let me = !c in
    let kids = List.rev (List.fold_left (fun acc k -> go k :: acc) [] e.E.children) in
    let pick v d = match v with Some v when me = node -> v | _ -> d in
    E.make ~attrs:(pick attrs e.E.attrs) ~text:(pick text e.E.text) ~children:kids e.E.tag
  in
  go root

(* The tree an update turns [root] into. *)
let elem_apply root u =
  match u with
  | U.Insert { parent; index; subtree } -> elem_insert root ~parent ~index subtree
  | U.Delete { node } -> elem_delete root ~node
  | U.Replace_text { node; text } -> elem_replace root ~node ~text ()
  | U.Replace_attrs { node; attrs } -> elem_replace root ~node ~attrs ()

let attrs_equal =
  List.equal (fun (k, v) (k', v') -> String.equal k k' && String.equal v v')

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
          && attrs_equal (D.attrs a v) (D.attrs b v)
          && D.level a v = D.level b v
          && D.parent a v = D.parent b v
          && D.subtree_last a v = D.subtree_last b v)
      then ok := false
    done;
    !ok
  end

(* The tag index lists, for every tag, exactly the nodes a document-order
   scan finds. *)
let tag_index_ok doc =
  List.compare_length_with (D.distinct_tags doc) (D.num_tags doc) = 0
  && List.for_all
       (fun tag ->
         let want = List.filter (fun v -> D.tag doc v = tag) (List.init (D.size doc) Fun.id) in
         Array.to_list (D.nodes_with_tag doc tag) = want)
       (D.distinct_tags doc)

(* Equality of structure, labels, tag set and tag index.  Tag ids are
   left out: an insert interns its new tags after the existing ones, where
   [of_elem] numbers them in document order. *)
let docs_equal a b =
  docs_equal_structure a b
  && D.max_pos a = D.max_pos b
  && List.equal String.equal (D.distinct_tags a) (D.distinct_tags b)
  && List.for_all
       (fun v -> D.start_pos a v = D.start_pos b v && D.end_pos a v = D.end_pos b v)
       (List.init (D.size a) Fun.id)
  && tag_index_ok a

(* [docs_equal], and the same tag ids. *)
let docs_identical a b =
  docs_equal a b
  && D.num_tags a = D.num_tags b
  && List.for_all (fun v -> D.tag_id a v = D.tag_id b v) (List.init (D.size a) Fun.id)

(* Interval labels must stay consistent with the parent structure: parents
   strictly contain children, siblings stay disjoint and ordered. *)
let labels_consistent doc =
  let ok = ref true in
  for v = 0 to D.size doc - 1 do
    if D.start_pos doc v >= D.end_pos doc v || D.end_pos doc v > D.max_pos doc then
      ok := false;
    let p = D.parent doc v in
    if p >= 0 then
      if not (D.start_pos doc p < D.start_pos doc v
             && D.end_pos doc v < D.end_pos doc p)
      then ok := false;
    if v > 0 && D.start_pos doc v <= D.start_pos doc (v - 1) then ok := false
  done;
  !ok

(* The open/close events of [doc] in position order: two documents whose
   labels differ only by holes give the same sequence. *)
let event_order doc =
  List.init (D.size doc) (fun v -> [ (D.start_pos doc v, v, true); (D.end_pos doc v, v, false) ])
  |> List.concat
  |> List.sort (fun (p, _, _) (q, _, _) -> Int.compare p q)
  |> List.map (fun (_, v, opens) -> (v, opens))

(* [doc], edited in place, describes [tree]: it equals [of_elem tree] up
   to the position holes that deletes leave. *)
let describes doc tree =
  let want = D.of_elem tree in
  docs_equal_structure doc want
  && labels_consistent doc
  && List.equal (fun (v, o) (w, o') -> v = w && Bool.equal o o') (event_order doc) (event_order want)
  && tag_index_ok doc

(* --- Document edit helper unit tests ----------------------------------- *)

let sample () =
  E.make "r"
    ~children:
      [ E.make "x"; E.make "y" ~children:[ E.make "z"; E.make "x" ] ]

let test_insert_matches_of_elem () =
  let sub = E.make "w" ~children:[ E.make "v" ] in
  List.iter
    (fun (parent, index) ->
      let doc = D.of_elem (sample ()) in
      let root = D.insert_subtree doc ~parent ~index sub in
      let want = D.of_elem (elem_insert (sample ()) ~parent ~index sub) in
      Alcotest.(check bool)
        (Printf.sprintf "insert under %d at %d" parent index)
        true (docs_equal doc want);
      check Alcotest.string "inserted root tag" "w" (D.tag doc root))
    [ (0, 0); (0, 1); (0, 99); (0, -1); (2, 0); (2, 2); (1, 0); (4, 0) ]

let test_insert_new_tags_extend_interning () =
  let doc = D.of_elem (sample ()) in
  let before = D.copy doc in
  ignore (D.insert_subtree doc ~parent:0 ~index:99 (E.make "brandnew"));
  check Alcotest.int "old ids stable"
    (match D.lookup_tag_id before "y" with Some i -> i | None -> -1)
    (match D.lookup_tag_id doc "y" with Some i -> i | None -> -1);
  check Alcotest.int "new tag interned" 1 (Test_util.tag_count doc "brandnew");
  check Alcotest.int "copy untouched" 5 (D.size before);
  check Alcotest.int "copy does not know the tag" 0 (Test_util.tag_count before "brandnew")

let test_delete_preserves_labels () =
  let doc = D.of_elem (sample ()) in
  let before = D.copy doc in
  D.delete_subtree doc 2;
  let want = D.of_elem (elem_delete (sample ()) ~node:2) in
  Alcotest.(check bool) "structure" true (docs_equal_structure doc want);
  check Alcotest.int "max_pos unchanged" (D.max_pos before) (D.max_pos doc);
  (* Survivors keep their original positions. *)
  check Alcotest.int "root start" (D.start_pos before 0) (D.start_pos doc 0);
  check Alcotest.int "root end" (D.end_pos before 0) (D.end_pos doc 0);
  check Alcotest.int "x start" (D.start_pos before 1) (D.start_pos doc 1);
  Alcotest.(check bool) "labels consistent" true (labels_consistent doc);
  Alcotest.check_raises "root delete rejected"
    (Invalid_argument "Document.delete_subtree: node is the root or out of range")
    (fun () -> D.delete_subtree doc 0);
  Alcotest.(check bool) "rejected delete left the store as it was" true
    (docs_equal_structure doc want)

let test_replace_helpers () =
  let doc = D.of_elem (sample ()) in
  let before = D.copy doc in
  D.replace_text doc 1 "hello";
  check Alcotest.string "new text" "hello" (D.text doc 1);
  check Alcotest.string "copy untouched" "" (D.text before 1);
  D.replace_attrs doc 2 [ ("k", "v") ];
  check Alcotest.int "attr count" 1 (List.length (D.attrs doc 2));
  check Alcotest.int "copy's attr count" 0 (List.length (D.attrs before 2))

let prop_insert_matches_of_elem =
  QCheck.Test.make ~name:"insert_subtree = of_elem of edited tree" ~count:200
    QCheck.(
      pair (Test_util.elem_arbitrary ~max_nodes:30 ()) (triple small_nat small_nat (int_bound 1000)))
    (fun (elem, (pchoice, index, seed)) ->
      let doc = D.of_elem elem in
      let parent = pchoice mod D.size doc in
      let rng = Xmlest.Splitmix.create seed in
      let sub = gen_elem rng 5 in
      ignore (D.insert_subtree doc ~parent ~index sub);
      let want = D.of_elem (elem_insert elem ~parent ~index sub) in
      docs_equal doc want)

let prop_delete_structure_and_labels =
  QCheck.Test.make ~name:"delete_subtree structure + label preservation"
    ~count:200
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:30 ()) small_nat)
    (fun (elem, nchoice) ->
      let doc = D.of_elem elem in
      QCheck.assume (D.size doc > 1);
      let node = 1 + (nchoice mod (D.size doc - 1)) in
      D.delete_subtree doc node;
      let want = D.of_elem (elem_delete elem ~node) in
      docs_equal_structure doc want
      && labels_consistent doc
      && D.max_pos doc = 2 * Xmlest.Elem.size elem - 1)

(* --- Summary maintenance: exact streams are bit-identical -------------- *)

(* The content predicates are the ones [random_replace] can flip.  They
   reach every bucket of the maintenance engine's dispatch table: tags
   (among them [z], which no document holds until [z_insert] interns it
   and the table is rebuilt), a tag-pinned text family (a per-text
   predicate and an [any_of] of two), and unpinned predicates. *)
let base_preds () =
  Xmlest.Predicate.
    [ True; tagp "a"; tagp "b"; tagp "c"; Text_eq "x"; Attr_eq ("k", "v");
      text_eq ~tag:"b" "x"; any_of [ text_eq ~tag:"b" "x"; text_eq ~tag:"b" "hello" ];
      Level_eq 2; Not (tagp "a"); tagp "z" ]

(* [?domains] selects the build path the maintained summary comes from:
   the default sequential sweep or the partitioned one.  Maintenance
   invariants must hold identically for both — the rebuild reference is
   always sequential, so the parallel variants below also cross-check the
   two construction paths through the whole apply pipeline. *)
let summary_of ?domains ?grid_kind doc =
  let gs = Int.min 8 (D.max_pos doc + 1) in
  Xmlest.Summary.build ~grid_size:gs ?grid_kind ?domains doc (base_preds ())

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

(* [doc] after [ups], on a copy: [doc] itself is left as it was. *)
let edited doc ups =
  let d = D.copy doc in
  List.iter (Test_util.apply_doc d) ups;
  d

(* Generate [k] updates, each drawn against the document as edited so
   far (on a copy); [pick] may return None to stop early (e.g. nothing
   left to delete). *)
let stream ~k ~pick rng doc =
  let doc = D.copy doc in
  let rec go k acc =
    if k = 0 then List.rev acc
    else
      match pick rng doc with
      | None -> List.rev acc
      | Some u ->
        Test_util.apply_doc doc u;
        go (k - 1) (u :: acc)
  in
  go k []

(* The lazily rebuilt tag index of an edited document must list, for
   every tag, including tags first interned by an insert, exactly the
   nodes a document-order scan finds. *)
let prop_tag_index_after_edits =
  QCheck.Test.make ~name:"tag index = tag scan after inserts/deletes" ~count:200
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:30 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc0 = D.of_elem elem in
      let pick rng doc =
        if D.size doc > 1 && Sm.bool rng 0.4 then Some (random_delete rng doc)
        else
          let subtree =
            if Sm.bool rng 0.3 then
              E.make (Printf.sprintf "new%d" (Sm.int rng 3)) ~children:[ gen_elem rng 2 ]
            else gen_elem rng 4
          in
          Some (U.Insert { parent = Sm.int rng (D.size doc); index = Sm.int rng 3; subtree })
      in
      tag_index_ok (edited doc0 (stream ~k:6 ~pick (Sm.create seed) doc0)))

(* Apply [ups] to a summary of [doc] and compare it with a same-grid
   rebuild of the edited document. *)
let apply_equals_rebuild ?domains ?grid_kind doc ups =
  let s = summary_of ?domains ?grid_kind doc in
  Xmlest.Summary.apply s ups;
  let s' = Xmlest.Summary.build ~grid:(Xmlest.Summary.grid s) (edited doc ups) (base_preds ()) in
  summaries_identical s s'

let exact_stream_prop ~name ?domains ?grid_kind pick =
  QCheck.Test.make ~name ~count:100
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:40 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc = D.of_elem elem in
      let rng = Xmlest.Splitmix.create seed in
      let ups = stream ~k:4 ~pick rng doc in
      QCheck.assume (List.length ups > 0);
      apply_equals_rebuild ?domains ?grid_kind doc ups)

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

(* --- Interior inserts and all-kinds streams ------------------------------ *)

(* An insert anywhere: under a random parent, before one of its first
   children or (past the child count) as its last child. *)
let random_insert rng doc =
  let parent = Xmlest.Splitmix.int rng (D.size doc) in
  let index = Xmlest.Splitmix.int rng 3 in
  U.Insert { parent; index; subtree = gen_elem rng 4 }

let interior_pick rng doc = Some (random_insert rng doc)

(* An insert of a subtree holding tag [z], which no generated document
   holds, under the middle node. *)
let z_insert doc =
  U.Insert
    { parent = D.size doc / 2; index = 0;
      subtree = E.make "z" ~children:[ E.make "d"; E.make "a" ~text:"hello" ] }

let all_kinds_pick rng doc =
  match Xmlest.Splitmix.int rng 5 with
  | 0 when D.size doc > 1 -> Some (random_delete rng doc)
  | 1 -> Some (random_append rng doc)
  | 2 -> Some (random_replace rng (D.size doc) doc)
  | 3 -> Some (z_insert doc)
  | _ -> Some (random_insert rng doc)

(* In-place edit streams, from documents of a few nodes so that the
   columns outgrow their capacity many times over: after every edit the
   store describes the edited tree. *)
let prop_edit_stream_matches_of_elem =
  QCheck.Test.make ~name:"in-place edit stream = of_elem of edited tree" ~count:100
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:4 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc = D.of_elem elem in
      let rng = Sm.create seed in
      let tree = ref elem and ok = ref true in
      for _ = 1 to 40 do
        match all_kinds_pick rng doc with
        | None -> ()
        | Some u ->
          Test_util.apply_doc doc u;
          tree := elem_apply !tree u;
          if not (describes doc !tree) then ok := false
      done;
      !ok)

(* Editing a copy leaves every accessor of the original as it was, and
   editing the original leaves a copy as it was. *)
let prop_copy_independent =
  QCheck.Test.make ~name:"copy is independent of its original" ~count:100
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:20 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let rng = Sm.create seed in
      let edit_all doc =
        for _ = 1 to 10 do
          Option.iter (Test_util.apply_doc doc) (all_kinds_pick rng doc)
        done
      in
      let doc = D.of_elem elem in
      edit_all (D.copy doc);
      let copy_unchanged = docs_identical doc (D.of_elem elem) in
      let c = D.copy doc in
      edit_all doc;
      copy_unchanged && docs_identical c (D.of_elem elem))

(* Every node of [e] with its own text and attribute value, drawn from
   [fresh], so that a node reading another node's payload slot shows. *)
let with_payload fresh e =
  let rec go e =
    E.make e.E.tag ~text:(fresh ()) ~attrs:[ ("k", fresh ()) ]
      ~children:(List.map go e.E.children)
  in
  go e

(* Payload slots under edit streams: most of the document is deleted
   first, so the inserts after it reuse freed slots, replaces write
   through reused slots, and a copy taken mid-stream is edited alongside
   its original.  After every edit each store describes its own model
   tree, texts and attributes included. *)
let prop_payload_slots_reused =
  QCheck.Test.make ~name:"payload slots: delete most, reuse, copy mid-stream" ~count:100
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:40 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let rng = Sm.create seed in
      let n = ref 0 in
      let fresh () =
        incr n;
        Printf.sprintf "p%d" !n
      in
      let elem = with_payload fresh elem in
      let doc = D.of_elem elem in
      let tree = ref elem and ok = ref true in
      let edit doc tree u =
        Test_util.apply_doc doc u;
        tree := elem_apply !tree u;
        if not (describes doc !tree) then ok := false
      in
      let pick doc =
        let node = Sm.int rng (D.size doc) in
        match Sm.int rng 4 with
        | 0 -> U.Replace_text { node; text = fresh () }
        | 1 -> U.Replace_attrs { node; attrs = [ ("k", fresh ()); ("j", fresh ()) ] }
        | 2 when D.size doc > 1 -> random_delete rng doc
        | _ ->
          U.Insert
            { parent = node; index = Sm.int rng 3; subtree = with_payload fresh (gen_elem rng 4) }
      in
      let keep = Int.max 1 (D.size doc / 4) in
      while D.size doc > keep do
        edit doc tree (random_delete rng doc)
      done;
      for _ = 1 to 15 do
        edit doc tree (pick doc)
      done;
      let c = D.copy doc in
      let ctree = ref !tree in
      if not (describes c !ctree) then ok := false;
      for _ = 1 to 15 do
        edit doc tree (pick doc);
        edit c ctree (pick c)
      done;
      !ok)

let prop_interior_stream_exact =
  exact_stream_prop ~name:"interior inserts: apply = rebuild" interior_pick

let prop_interior_stream_exact_parallel =
  exact_stream_prop ~domains:4
    ~name:"interior inserts, parallel-built: apply = rebuild"
    interior_pick

let prop_interior_stream_exact_equidepth =
  exact_stream_prop ~grid_kind:`Equidepth
    ~name:"interior inserts, equi-depth: apply = rebuild" interior_pick

let prop_interior_stream_exact_equidepth_parallel =
  exact_stream_prop ~domains:4 ~grid_kind:`Equidepth
    ~name:"interior inserts, equi-depth+parallel: apply = rebuild"
    interior_pick

let prop_all_kinds_stream_exact =
  exact_stream_prop ~name:"all kinds: apply = rebuild" all_kinds_pick

let prop_all_kinds_stream_exact_parallel =
  exact_stream_prop ~domains:4
    ~name:"all kinds, parallel-built: apply = rebuild"
    all_kinds_pick

let prop_all_kinds_stream_exact_equidepth =
  exact_stream_prop ~grid_kind:`Equidepth
    ~name:"all kinds, equi-depth: apply = rebuild" all_kinds_pick

let prop_all_kinds_stream_exact_equidepth_parallel =
  exact_stream_prop ~domains:4 ~grid_kind:`Equidepth
    ~name:"all kinds, equi-depth+parallel: apply = rebuild"
    all_kinds_pick

let check_exact label doc ups =
  List.iter
    (fun (kind, grid_kind) ->
      Alcotest.(check bool) (label ^ ", " ^ kind) true
        (apply_equals_rebuild ~grid_kind doc ups))
    [ ("uniform", `Uniform); ("equi-depth", `Equidepth) ]

(* The new subtree shifts later positions by more than a bucket's width,
   so survivors past the locus jump whole buckets. *)
let test_insert_wider_than_a_bucket () =
  let doc = D.of_elem (Test_util.nested ~depth:3 ~fanout:3) in
  let wide = E.make "a" ~children:(List.init 30 (fun _ -> E.make "b" ~children:[ E.make "c" ])) in
  Alcotest.(check bool) "subtree spans buckets" true
    (2 * E.size wide > (D.max_pos doc + 1) / 8);
  check_exact "wide insert at the front" doc
    [ U.Insert { parent = 0; index = 0; subtree = wide } ];
  check_exact "wide insert mid-document" doc
    [ U.Insert { parent = 1; index = 1; subtree = wide } ]

(* Under the deepest interior node: the ancestor chain to re-key is the
   whole document depth. *)
let test_insert_under_deep_node () =
  let depth = 40 in
  let rec chain d =
    if d = depth then E.make "c"
    else
      E.make (if d mod 2 = 0 then "a" else "b")
        ~children:[ E.make "c"; chain (d + 1); E.make "b" ]
  in
  let doc = D.of_elem (chain 0) in
  let deep =
    let v = ref 0 in
    for u = 0 to D.size doc - 1 do
      if D.level doc u > D.level doc !v && D.subtree_last doc u > u then v := u
    done;
    !v
  in
  Alcotest.(check bool) "deep parent" true (D.level doc deep >= depth - 1);
  let sub = E.make "a" ~children:[ E.make "b"; E.make "c" ] in
  check_exact "insert under a deep node" doc
    [ U.Insert { parent = deep; index = 0; subtree = sub };
      U.Insert { parent = deep; index = 1; subtree = sub };
      U.Insert { parent = deep; index = 99; subtree = sub } ]

(* Inserts near the end push nodes past the grid's [max_pos], where they
   clamp into the last bucket exactly as a same-grid rebuild puts them. *)
let test_insert_past_max_pos () =
  let doc = D.of_elem (Test_util.nested ~depth:3 ~fanout:3) in
  let last_child = List.length (Test_util.children doc 0) - 1 in
  let sub = E.make "b" ~children:[ E.make "a"; E.make "c" ] in
  let ups =
    [ U.Insert { parent = 0; index = last_child; subtree = sub };
      U.Insert { parent = 0; index = last_child; subtree = sub };
      U.Insert { parent = D.size doc - 1; index = 0; subtree = sub } ]
  in
  let doc' = edited doc ups in
  Alcotest.(check bool) "survivors pushed past max_pos" true
    (D.start_pos doc' (D.size doc' - 1) > D.max_pos doc);
  check_exact "inserts past max_pos" doc ups

(* A matching mover covers the nodes down to the next match below it, not
   those under a nested match.  Inserting into the outer match shifts its
   end, not the nested match's subtree before the locus.  An overlapping
   predicate has no coverage histogram to compare, so each stream then
   deletes the nested match: the predicate stops overlapping and its
   coverage entries show. *)
let test_covering_side_stops_at_nested_matches () =
  let nest =
    E.make "a" ~children:[ E.make "a" ~children:[ E.make "c"; E.make "c" ]; E.make "c" ]
  in
  let pad = List.init 6 (fun _ -> E.make "x" ~children:[ E.make "y" ]) in
  let doc = D.of_elem (E.make "r" ~children:(nest :: pad)) in
  check Alcotest.string "nested match" "a" (D.tag doc 2);
  for size = 1 to 12 do
    List.iter
      (fun index ->
        let sub = E.make "d" ~children:(List.init (size - 1) (fun _ -> E.make "e")) in
        check_exact
          (Printf.sprintf "insert %d nodes at %d, then un-nest" size index)
          doc
          [ U.Insert { parent = 1; index; subtree = sub }; U.Delete { node = 2 } ])
      [ 1; 2 ]
  done

(* A replace that flips a node with a matching ancestor hands the nodes
   it covers between itself and that ancestor.  The first replace un-nests
   the [Text_eq "x"] matches, so their coverage entries show; the second
   nests them again and the third un-nests them from the other end.  Each
   prefix is checked, so errors cannot cancel out. *)
let test_replace_under_a_matching_ancestor () =
  let doc =
    D.of_elem
      (E.make "r"
         ~children:
           [ E.make "a" ~text:"x"
               ~children:[ E.make "b" ~text:"x" ~children:[ E.make "c"; E.make "c" ] ];
             E.make "c" ])
  in
  let ups =
    [ U.Replace_text { node = 2; text = "" }; U.Replace_text { node = 2; text = "x" };
      U.Replace_text { node = 1; text = "" } ]
  in
  List.iteri
    (fun n _ ->
      check_exact (Printf.sprintf "first %d replaces" (n + 1)) doc
        (List.filteri (fun i _ -> i <= n) ups))
    ups

(* The maintain leg of the deep-chain stack-safety checks: on a
   100,000-deep chain an interior insert at mid-depth, a delete, a leaf
   replace and a replace at the top (its whole chain below it flips
   coverage) stay exact, with no per-level recursion and no walk up from
   every node. *)
let test_deep_chain_maintenance () =
  let depth = 100_000 in
  let tags = [| "a"; "b"; "c" |] in
  let e = ref (E.make "c") in
  for d = depth - 1 downto 0 do
    e := E.make tags.(d mod 3) ~children:[ !e ]
  done;
  let doc = D.of_elem !e in
  let mid = depth / 2 in
  let ups =
    [ U.Insert { parent = mid; index = 0; subtree = E.make "a" ~children:[ E.make "b" ] };
      U.Delete { node = mid + 30_000 };
      U.Replace_attrs { node = mid + 29_999; attrs = [ ("k", "v") ] };
      U.Replace_text { node = 1; text = "x" } ]
  in
  Alcotest.(check bool) "deep chain: apply = rebuild" true
    (apply_equals_rebuild doc ups)

(* --- DBLP streams ---------------------------------------------------------- *)

let dblp_article k =
  E.make "article"
    ~attrs:[ ("key", Printf.sprintf "maint/%d" k) ]
    ~children:
      [
        E.leaf "author" (Printf.sprintf "Author %d" k);
        E.leaf "title" (Printf.sprintf "Maintained Entry %d" k);
        E.leaf "year" (string_of_int (1980 + (k mod 40)));
        E.leaf "url" (Printf.sprintf "db/maint/%d.html" k);
      ]

(* Over the 12 Table-1 predicates (tags, [text_prefix] cites and decade
   [any_of] compounds), on both grid kinds at g = 10 and on a uniform
   g = 50, whose narrower buckets more shifts cross: a 200-update stream of
   end-of-document appends, deletes of random subtrees and year-text
   replacements, then 25 inserts of a record as the first child of a
   random node.  Each stream is drawn against the document as edited so
   far and applied one update at a time; the maintained summary is then
   [to_string]-equal to a same-grid rebuild of the edited document. *)
let test_dblp_streams_exact () =
  let doc = D.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  let preds = Test_util.dblp_table1_predicates () in
  let stream_pick rng d =
    let k = Sm.int rng 100_000 in
    Some
      (match Sm.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> U.Insert { parent = 0; index = max_int; subtree = dblp_article k }
      | 5 | 6 | 7 -> U.Delete { node = 1 + Sm.int rng (D.size d - 1) }
      | _ -> U.Replace_text { node = Sm.int rng (D.size d); text = string_of_int (1980 + (k mod 40)) })
  in
  let first_child_pick rng d =
    Some (U.Insert { parent = Sm.int rng (D.size d); index = 0; subtree = dblp_article (Sm.int rng 100_000) })
  in
  List.iter
    (fun (grid_kind, grid_size) ->
      let rng = Sm.create 0x4d41494e in
      List.iter
        (fun (label, n, pick) ->
          let s = Xmlest.Summary.build ~grid_size ~grid_kind doc preds in
          let ups = stream ~k:n ~pick rng doc in
          List.iter (fun u -> Xmlest.Summary.apply s [ u ]) ups;
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s g=%d" label
               (match grid_kind with `Uniform -> "uniform" | `Equidepth -> "equi-depth")
               grid_size)
            true
            (summaries_identical s
               (Xmlest.Summary.build ~grid:(Xmlest.Summary.grid s) (edited doc ups) preds)))
        [ ("200-update exact stream", 200, stream_pick); ("25 interior inserts", 25, first_child_pick) ])
    [ (`Uniform, 10); (`Equidepth, 10); (`Uniform, 50) ]

(* --- Rebuild policies and rejected batches ------------------------------ *)

let test_staleness_policies () =
  let doc = D.of_elem (Test_util.fig1 ()) in
  let s = summary_of doc in
  Alcotest.(check bool) "fresh summary has no report" true
    (Xmlest.Summary.staleness s = None);
  (* `Never (the default) keeps maintaining, and counts what it did... *)
  Xmlest.Summary.apply s
    [ U.Insert { parent = 0; index = 0; subtree = E.make "a" } ];
  let r1 =
    match Xmlest.Summary.staleness s with
    | Some r -> r
    | None -> Alcotest.fail "expected staleness report"
  in
  check Alcotest.int "one update counted" 1 r1.Xmlest.Staleness.updates_since_build;
  Alcotest.(check bool) "the inserted node was touched" true
    (r1.Xmlest.Staleness.nodes_touched > 0);
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

(* A batch whose second update is out of range: the append before it is
   applied to the histograms, so the summary must commit it — document,
   node counts and update count — before the exception propagates. *)
let test_rejected_batch_commits_prefix () =
  let doc = D.of_elem (Xmlest.Staff_gen.generate ()) in
  check Alcotest.int "staff nodes" 1467 (D.size doc);
  let manager = tagp "manager" in
  let s = Xmlest.Summary.build ~grid_size:10 doc [ manager; tagp "employee" ] in
  let append =
    U.Insert
      { parent = 0; index = max_int;
        subtree = E.make "manager" ~children:[ E.make "employee" ] }
  in
  Alcotest.check_raises "out-of-range delete"
    (Invalid_argument "Apply: delete node is the root or out of range")
    (fun () -> Xmlest.Summary.apply s [ append; U.Delete { node = 14670 } ]);
  let doc' =
    match Xmlest.Summary.document s with
    | Some d -> d
    | None -> Alcotest.fail "document survives maintenance"
  in
  check Alcotest.int "document holds the append" 1469 (D.size doc');
  check (Alcotest.float 0.0) "manager count describes that document"
    (float_of_int (Test_util.tag_count doc' "manager"))
    (Xmlest.Summary.node_count s manager);
  (match Xmlest.Summary.staleness s with
  | Some r -> check Alcotest.int "only the applied update counted" 1
                r.Xmlest.Staleness.updates_since_build
  | None -> Alcotest.fail "expected staleness report");
  let fresh =
    Xmlest.Summary.build ~grid:(Xmlest.Summary.grid s) doc' [ manager; tagp "employee" ]
  in
  Alcotest.(check bool) "summary = same-grid rebuild of the prefix" true
    (summaries_identical s fresh)

(* What one update touches per predicate, counted by brute force on the
   document before and after it: the matching nodes of a deleted or
   inserted subtree, the matching survivors of an insert whose cell
   changed, and a replaced node whose match flipped. *)
let touched_by grid doc u p =
  let matches d v = Xmlest.Predicate.eval p d v in
  let count d lo hi =
    List.length (List.filter (matches d) (List.init (hi - lo + 1) (( + ) lo)))
  in
  match u with
  | U.Delete { node } -> count doc node (D.subtree_last doc node)
  | U.Insert { parent; index; subtree } ->
    let d = D.copy doc in
    let root = D.insert_subtree d ~parent ~index subtree in
    let k = D.subtree_size d root in
    let cell d v = Xmlest.Grid.cell_of_node grid ~start_pos:(D.start_pos d v) ~end_pos:(D.end_pos d v) in
    let moved v =
      let v' = if v < root then v else v + k in
      matches doc v && cell doc v <> cell d v'
    in
    count d root (root + k - 1) + List.length (List.filter moved (List.init (D.size doc) Fun.id))
  | U.Replace_text { node; _ } | U.Replace_attrs { node; _ } ->
    if Bool.equal (matches doc node) (matches (edited doc [ u ]) node) then 0 else 1

(* The staleness report counts, per base predicate, exactly the nodes
   [touched_by] counts over the stream applied so far. *)
let prop_staleness_counts =
  QCheck.Test.make ~name:"staleness counts = brute-force touched nodes" ~count:100
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:40 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc = D.of_elem elem in
      let rng = Sm.create seed in
      let s = summary_of ~grid_kind:(if seed mod 2 = 0 then `Uniform else `Equidepth) doc in
      let grid = Xmlest.Summary.grid s in
      let want = Hashtbl.create 16 in
      List.iter
        (fun u ->
          let d =
            match Xmlest.Summary.document s with Some d -> d | None -> Alcotest.fail "no document"
          in
          List.iter
            (fun p ->
              let name = Xmlest.Predicate.name p in
              let was = Option.value ~default:0 (Hashtbl.find_opt want name) in
              Hashtbl.replace want name (was + touched_by grid d u p))
            (base_preds ());
          Xmlest.Summary.apply s [ u ])
        (stream ~k:6 ~pick:all_kinds_pick rng doc);
      match Xmlest.Summary.staleness s with
      | None -> Hashtbl.length want = 0
      | Some r ->
        List.for_all
          (fun (name, n) -> Hashtbl.find_opt want name = Some n)
          r.Xmlest.Staleness.per_predicate)

(* The summary edits a private copy: the document given to [build] keeps
   its size, tags, positions and text, while [Summary.document] shows the
   edits, and the next [apply] advances that same working copy. *)
let test_build_document_never_edited () =
  let elem = Xmlest.Staff_gen.generate () in
  let doc = D.of_elem elem in
  let s = Xmlest.Summary.build ~grid_size:10 doc [ tagp "manager"; tagp "employee" ] in
  let ups =
    [ U.Insert { parent = 0; index = max_int; subtree = E.make "manager" };
      U.Delete { node = 3 };
      U.Replace_text { node = 5; text = "x" };
      U.Insert { parent = 1; index = 0; subtree = E.make "newtag" } ]
  in
  Xmlest.Summary.apply s ups;
  Alcotest.(check bool) "build's document unchanged" true (docs_identical doc (D.of_elem elem));
  let working () =
    match Xmlest.Summary.document s with
    | Some d -> d
    | None -> Alcotest.fail "document survives maintenance"
  in
  let d = working () in
  Alcotest.(check bool) "a separate store" false (d == doc);
  Alcotest.(check bool) "the summary's document shows the edits" true
    (docs_equal d (edited doc ups));
  Xmlest.Summary.apply s [ U.Delete { node = 1 } ];
  Alcotest.(check bool) "the next apply advances the same store" true (working () == d);
  check Alcotest.int "one more edit" (D.size (edited doc ups) - D.subtree_size (edited doc ups) 1)
    (D.size d);
  check Alcotest.int "build's document keeps its size" 1467 (D.size doc)

(* The estimate contract on a maintained summary: after every edit of a
   random stream, estimates stay finite and non-negative, and exactly 0.0
   for patterns the check proves empty over the edited document. *)
let prop_maintained_estimate_contract =
  QCheck.Test.make ~name:"maintained estimates: finite, >= 0, 0.0 when unsat" ~count:60
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:30 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc = D.of_elem elem in
      let rng = Sm.create seed in
      let grid_kind = if seed mod 2 = 0 then `Uniform else `Equidepth in
      let s = summary_of ~grid_kind doc in
      let ok = ref true in
      for _ = 1 to 6 do
        (match Xmlest.Summary.document s with
        | Some d -> Option.iter (fun u -> Xmlest.Summary.apply s [ u ]) (all_kinds_pick rng d)
        | None -> ok := false);
        for _ = 1 to 4 do
          if not (Test_util.estimate_contract s (Test_util.contract_pattern rng)) then ok := false
        done
      done;
      !ok)

(* --- On-demand histograms under maintenance ----------------------------- *)

(* Predicates outside [base_preds]: a tag, a text leaf, a compound with
   an unknown leaf, and a tag no document holds until [z_insert] interns
   it ([tag "z"] is a base predicate too, so a compound pinned to [z],
   with a leaf no summary holds, keeps an on-demand one in that case). *)
let on_demand_preds () =
  Xmlest.Predicate.
    [ tag "d"; Text_eq "hello"; And (tag "a", Text_prefix "he"); tag "z";
      And (tag "z", Text_prefix "he") ]

let on_demand_patterns =
  List.map Xmlest.Pattern_parser.pattern_exn
    [ "//a//d"; "//d[.//z]"; "//z"; "//a//b"; "//c[.//d]//a"; "//b//z" ]

let hist_bits_equal a b =
  let g = (Xmlest.Position_histogram.grid a).Xmlest.Grid.size in
  let bits h ~i ~j = Int64.bits_of_float (Xmlest.Position_histogram.get h ~i ~j) in
  let ok = ref (Int64.equal (Int64.bits_of_float (Xmlest.Position_histogram.total a))
                  (Int64.bits_of_float (Xmlest.Position_histogram.total b))) in
  for i = 0 to g - 1 do
    for j = i to g - 1 do
      if not (Int64.equal (bits a ~i ~j) (bits b ~i ~j)) then ok := false
    done
  done;
  !ok

(* Every on-demand histogram is bit-identical to a build on the summary's
   document, and every estimate to a same-grid fresh build's. *)
let on_demand_exact s =
  let doc =
    match Xmlest.Summary.document s with Some d -> d | None -> Alcotest.fail "no document"
  in
  let grid = Xmlest.Summary.grid s in
  let fresh = Xmlest.Summary.build ~grid doc (base_preds ()) in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  List.for_all
    (fun p ->
      hist_bits_equal (Xmlest.Summary.histogram s p)
        (Xmlest.Position_histogram.build doc ~grid p))
    (on_demand_preds ())
  && List.for_all
       (fun q -> same (Xmlest.Summary.estimate s q) (Xmlest.Summary.estimate fresh q))
       on_demand_patterns

(* The base and on-demand histograms the summary hands out keep no stale
   non-zero cells: maintenance edits them with [add]. *)
let nonzero_fresh s =
  List.for_all
    (fun p -> Test_util.nonzero_is_fresh_scan (Xmlest.Summary.histogram s p))
    (base_preds () @ on_demand_preds ())

let base_names () = List.map Xmlest.Predicate.name (base_preds ())

let catalog_keys s =
  List.sort String.compare (Xmlest.Hist_catalog.keys (Xmlest.Summary.hist_catalog s))

(* On-demand histograms asked before the first apply, between applies,
   after a batch with a rejected update and across the insert that
   interns their tag stay exact.  They are maintained rather than
   rebuilt, whenever they were built: the summary hands out the same
   objects after every apply, the first one included.  Staleness reports the base
   predicates only, and a batch estimation over domains returns the
   sequential estimates and tracks nothing new. *)
let prop_on_demand_maintained =
  QCheck.Test.make ~name:"on-demand histograms: maintained, exact, base-only staleness"
    ~count:60
    QCheck.(pair (Test_util.elem_arbitrary ~max_nodes:30 ()) (int_bound 10000))
    (fun (elem, seed) ->
      let doc0 = D.of_elem elem in
      let rng = Sm.create seed in
      let grid_kind = if seed mod 2 = 0 then `Uniform else `Equidepth in
      let s = summary_of ~grid_kind doc0 in
      let doc () =
        match Xmlest.Summary.document s with Some d -> d | None -> Alcotest.fail "no document"
      in
      let batch k = stream ~k ~pick:all_kinds_pick rng (doc ()) in
      let hists () = List.map (Xmlest.Summary.histogram s) (on_demand_preds ()) in
      let same_objects a b = List.for_all2 ( == ) a b in
      let ok = ref (on_demand_exact s && nonzero_fresh s) in
      let check b = if not b then ok := false in
      let tracked = hists () in
      Xmlest.Summary.apply s (batch 2);
      check (on_demand_exact s);
      check (nonzero_fresh s);
      check (same_objects tracked (hists ()));
      Xmlest.Summary.apply s (batch 2);
      check (on_demand_exact s);
      check (nonzero_fresh s);
      check (same_objects tracked (hists ()));
      (try
         Xmlest.Summary.apply s (batch 1 @ [ U.Delete { node = 1_000_000 } ]);
         check false
       with Invalid_argument _ -> ());
      check (on_demand_exact s);
      check (nonzero_fresh s);
      check (same_objects tracked (hists ()));
      let z = Xmlest.Summary.histogram s (tagp "z") in
      Xmlest.Summary.apply s [ z_insert (doc ()) ];
      check (Xmlest.Position_histogram.total z > 0.0);
      check (on_demand_exact s);
      check (nonzero_fresh s);
      check (same_objects tracked (hists ()));
      (match Xmlest.Summary.staleness s with
      | Some r ->
        check
          (List.equal String.equal (base_names ())
             (List.map fst r.Xmlest.Staleness.per_predicate))
      | None -> check false);
      let expected = List.map (Xmlest.Summary.estimate s) on_demand_patterns in
      let keys = catalog_keys s in
      List.iter
        (fun domains ->
          let got = Xmlest.Summary.estimate_batch ~domains s on_demand_patterns in
          check
            (List.equal
               (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
               expected got);
          check (List.equal String.equal keys (catalog_keys s)))
        [ 1; 2; 4 ];
      (* A domain's scratch build of a new predicate stays on its domain. *)
      List.iter
        (fun domains ->
          ignore
            (Xmlest.Summary.estimate_batch ~domains s
               (List.map Xmlest.Pattern_parser.pattern_exn [ "//e//e"; "//e"; "//d//e" ]));
          check (List.equal String.equal keys (catalog_keys s)))
        [ 2; 4 ];
      Xmlest.Summary.apply s (batch 1);
      check (List.equal String.equal keys (catalog_keys s));
      check (on_demand_exact s);
      !ok)

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
  let doc' = edited doc [ U.Delete { node = 1 } ] in
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

(* Words the line format must carry: spaces, [=], [&], quotes,
   backslashes, edge whitespace, line breaks and non-ASCII bytes. *)
let word_pieces =
  [| "a"; "b c"; " "; "="; "&"; "\""; "'"; "\\"; "\n"; "\r\n"; "\t"; "<x>"; "\xc3\xa9"; "" |]

let gen_word rng =
  String.concat "" (List.init (Sm.int rng 4) (fun _ -> Sm.choose rng word_pieces))

(* Any update; subtree texts are trimmed, as Xml_parser produces them. *)
let gen_update rng =
  let node = Sm.int rng 1000 in
  match Sm.int rng 4 with
  | 0 -> U.Delete { node }
  | 1 -> U.Replace_text { node; text = gen_word rng }
  | 2 ->
    U.Replace_attrs
      { node; attrs = List.init (Sm.int rng 4) (fun _ -> (gen_word rng, gen_word rng)) }
  | _ ->
    let rec decorate e =
      {
        e with
        E.attrs = (if Sm.bool rng 0.5 then [ ("k", gen_word rng) ] else []);
        text = Xmlest.Sax.trim_text (gen_word rng);
        children = List.map decorate e.E.children;
      }
    in
    U.Insert
      { parent = node; index = Sm.int rng 5; subtree = decorate (gen_elem rng (1 + Sm.int rng 4)) }

let update_equal a b =
  let attrs_equal =
    List.equal (fun (k, v) (k', v') -> String.equal k k' && String.equal v v')
  in
  match (a, b) with
  | U.Insert x, U.Insert y ->
    Int.equal x.parent y.parent && Int.equal x.index y.index && Test_util.elem_equal x.subtree y.subtree
  | U.Delete x, U.Delete y -> Int.equal x.node y.node
  | U.Replace_text x, U.Replace_text y -> Int.equal x.node y.node && String.equal x.text y.text
  | U.Replace_attrs x, U.Replace_attrs y -> Int.equal x.node y.node && attrs_equal x.attrs y.attrs
  | (U.Insert _ | U.Delete _ | U.Replace_text _ | U.Replace_attrs _), _ -> false

let update_arbitrary =
  QCheck.make ~print:(fun u -> String.escaped (U.to_line u)) (fun st ->
      gen_update (Sm.create (Random.State.bits st)))

let prop_update_line_round_trip =
  QCheck.Test.make ~count:1000 ~name:"parse (to_line u) = u, on one line"
    update_arbitrary (fun u ->
      let line = U.to_line u in
      (not (String.contains line '\n'))
      && match U.parse line with Ok u' -> update_equal u u' | Error _ -> false)

(* Byte flips, deletes, inserts and truncations of valid pattern strings
   and update lines: each parser returns a result and never raises. *)
let valid_patterns =
  [|
    "//article//author"; "/dblp/article[.//title]//year";
    "//faculty[.//TA][.//RA]//name"; "//cite[starts-with(text(),'conf')]";
    "//year[text()='1984']"; "//item[@id='7']/b";
    "//title[contains(text(),\"Query\")]"; "//*//b"; "  //a [ .//b ] / c ";
  |]

let mutation_bytes = [| '"'; '\''; '\\'; '='; '['; ']'; '/'; '('; ')'; '<'; '>'; '&'; ' '; '\n'; '@'; '.'; '*' |]

let mutate rng s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_string b s;
  for _ = 0 to Sm.int rng 4 do
    let cur = Buffer.contents b in
    let n = String.length cur in
    let at = if n = 0 then 0 else Sm.int rng n in
    let byte () =
      if Sm.bool rng 0.5 then Sm.choose rng mutation_bytes else Char.chr (Sm.int rng 256)
    in
    Buffer.clear b;
    match Sm.int rng 4 with
    | 0 when n > 0 ->
      Buffer.add_string b cur;
      Buffer.truncate b at;
      Buffer.add_char b (Char.chr (Char.code cur.[at] lxor (1 lsl Sm.int rng 8)));
      Buffer.add_string b (String.sub cur (at + 1) (n - at - 1))
    | 1 when n > 0 ->
      Buffer.add_string b (String.sub cur 0 at);
      Buffer.add_string b (String.sub cur (at + 1) (n - at - 1))
    | 2 ->
      Buffer.add_string b (String.sub cur 0 at);
      Buffer.add_char b (byte ());
      Buffer.add_string b (String.sub cur at (n - at))
    | _ -> Buffer.add_string b (String.sub cur 0 at)
  done;
  Buffer.contents b

let prop_mutated_inputs_never_raise =
  QCheck.Test.make ~count:2000 ~name:"mutated patterns and update lines never raise"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sm.create seed in
      let pattern = mutate rng (Sm.choose rng valid_patterns) in
      let line = mutate rng (U.to_line (gen_update rng)) in
      (match Xmlest.Pattern_parser.parse pattern with Ok _ | Error _ -> true)
      && match U.parse line with Ok _ | Error _ -> true)

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
          qcheck prop_tag_index_after_edits;
          qcheck prop_edit_stream_matches_of_elem;
          qcheck prop_copy_independent;
          qcheck prop_payload_slots_reused;
        ] );
      ( "exact-maintenance",
        [
          qcheck prop_delete_stream_exact;
          qcheck prop_append_stream_exact;
          qcheck prop_mixed_exact_stream;
          qcheck prop_delete_stream_exact_parallel;
          qcheck prop_append_stream_exact_parallel;
          qcheck prop_mixed_exact_stream_parallel;
          qcheck prop_interior_stream_exact;
          qcheck prop_interior_stream_exact_parallel;
          qcheck prop_interior_stream_exact_equidepth;
          qcheck prop_interior_stream_exact_equidepth_parallel;
          qcheck prop_all_kinds_stream_exact;
          qcheck prop_all_kinds_stream_exact_parallel;
          qcheck prop_all_kinds_stream_exact_equidepth;
          qcheck prop_all_kinds_stream_exact_equidepth_parallel;
          Alcotest.test_case "insert wider than a bucket" `Quick
            test_insert_wider_than_a_bucket;
          Alcotest.test_case "insert under a deep node" `Quick
            test_insert_under_deep_node;
          Alcotest.test_case "inserts past the grid's max_pos" `Quick
            test_insert_past_max_pos;
          Alcotest.test_case "covering side stops at nested matches" `Quick
            test_covering_side_stops_at_nested_matches;
          Alcotest.test_case "replace under a matching ancestor" `Quick
            test_replace_under_a_matching_ancestor;
          Alcotest.test_case "deep chain (100k levels)" `Quick
            test_deep_chain_maintenance;
          Alcotest.test_case "DBLP streams: apply = rebuild" `Quick
            test_dblp_streams_exact;
          qcheck prop_on_demand_maintained;
        ] );
      ( "rebuild-policy",
        [
          Alcotest.test_case "staleness policies" `Quick test_staleness_policies;
          Alcotest.test_case "rejected update commits the prefix" `Quick
            test_rejected_batch_commits_prefix;
          qcheck prop_staleness_counts;
        ] );
      ( "working-copy",
        [
          Alcotest.test_case "build's document is never edited" `Quick
            test_build_document_never_edited;
          qcheck prop_maintained_estimate_contract;
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
          qcheck prop_update_line_round_trip;
          qcheck prop_mutated_inputs_never_raise;
          Alcotest.test_case "loaded summary rejects apply" `Quick
            test_loaded_summary_rejects_apply;
        ] );
      ( "repl",
        [
          Alcotest.test_case "maintenance commands" `Quick
            test_repl_maintenance_commands;
        ] );
    ]
