(* The benchmark's inputs: two documents with their summary predicate
   sets, and the seeded pattern and update streams drawn over them.

   The document generators keep their own fixed seeds, so a document is
   the same on every run; [--seed] drives only the pattern and update
   streams. *)

open Xmlest_core
module E = Xmlest.Elem
module P = Xmlest.Predicate
module Rng = Xmlest.Splitmix

type dataset = {
  name : string;
  generate : unit -> E.t;
  grid_size : int;
  preds : P.t list;
}

let years = List.init 40 (fun k -> string_of_int (1960 + k))

(* Table 1 of the paper plus the 40 per-year text predicates the decade
   compounds resolve against: 52 predicates, the repository's canonical
   DBLP summary. *)
let dblp_preds =
  let decade d =
    P.any_of (List.init 10 (fun k -> P.text_eq ~tag:"year" (string_of_int (d + k))))
  in
  List.map P.tag [ "article"; "author"; "book"; "cdrom"; "cite"; "title"; "url"; "year" ]
  @ [
      P.text_prefix ~tag:"cite" "conf";
      P.text_prefix ~tag:"cite" "journal";
      decade 1980;
      decade 1990;
    ]
  @ List.map (P.text_eq ~tag:"year") years

let dblp ~smoke =
  {
    name = "dblp";
    generate = (fun () -> Xmlest.Dblp_gen.generate_scaled (if smoke then 0.02 else 1.0));
    grid_size = 10;
    preds = dblp_preds;
  }

(* Every tag of the Treebank generator: nearly all nest within
   themselves, so estimation takes the pH-join path. *)
let treebank_tags =
  [ "FILE"; "EMPTY"; "S"; "NP"; "VP"; "PP"; "SBAR"; "DT"; "JJ"; "NN"; "IN"; "VB" ]

let treebank ~smoke =
  {
    name = "treebank";
    generate =
      (fun () -> Xmlest.Treebank_gen.generate ~sentences:(if smoke then 60 else 4000) ());
    grid_size = 50;
    preds = List.map P.tag treebank_tags;
  }

(* --- Pattern streams ---------------------------------------------------- *)

(* A twig of [k] nodes read off the document: a random node and [k - 1]
   distinct nodes of its subtree, each hung below its nearest chosen
   ancestor.  The chosen nodes are themselves a match, so every answer is
   at least 1. *)
let doc_twig rng doc k =
  let module D = Xmlest.Document in
  let rec root () =
    let r = Rng.int rng (D.size doc) in
    if D.subtree_size doc r >= k then r else root ()
  in
  let r = root () in
  let last = D.subtree_last doc r in
  let chosen = Hashtbl.create 8 in
  while Hashtbl.length chosen < k - 1 do
    Hashtbl.replace chosen (r + 1 + Rng.int rng (last - r)) ()
  done;
  let nodes = List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) chosen []) in
  (* pre-order: a node's chosen ancestors precede it *)
  let parent_of v =
    List.fold_left
      (fun best u -> if u < v && D.is_ancestor doc ~anc:u ~desc:v then u else best)
      r nodes
  in
  let rec build v =
    let kids = List.filter (fun u -> Int.equal (parent_of u) v) nodes in
    Xmlest.Pattern.node
      ~edges:(List.map (fun u -> (Xmlest.Pattern.Descendant, build u)) kids)
      (P.tag (D.tag doc v))
  in
  build r

let doc_twigs rng doc ~n = Array.init n (fun _ -> doc_twig rng doc (3 + Rng.int rng 3))

(* Record-rooted twigs over the DBLP catalog predicates only, so that a
   summary opened from a store (which has no document to build other
   histograms from) answers every one of them. *)
let record_twig rng =
  let leaf () =
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
      ".//" ^ Rng.choose rng [| "author"; "title"; "url"; "year"; "cite"; "cdrom" |]
    | 6 | 7 -> Printf.sprintf ".//year[text()='%d']" (1960 + Rng.int rng 40)
    | 8 -> ".//cite[starts-with(text(),'conf')]"
    | _ -> ".//cite[starts-with(text(),'journal')]"
  in
  let root = if Rng.bool rng 0.8 then "article" else "book" in
  let branches = 1 + Rng.int rng 3 in
  "//" ^ root ^ String.concat "" (List.init branches (fun _ -> "[" ^ leaf () ^ "]"))

let record_twigs rng ~n = Array.init n (fun _ -> record_twig rng)

(* The estimates that follow each update in the maintain workload; the
   last one needs [inproceedings], which is not a catalog predicate, so
   its histogram is built on demand and dropped by every update. *)
let maintain_queries =
  [|
    "//article//author";
    "//article[.//author][.//year]";
    "//article//cite[starts-with(text(),'conf')]";
    "//book//title";
    "//article//year[text()='1985']";
    "//article[.//cite][.//url]";
    "//book[.//author]//cite";
    "//inproceedings//author";
  |]

(* --- Update stream ------------------------------------------------------ *)

type kind = Append | Delete | Replace | Interior

let kind_name = function
  | Append -> "append"
  | Delete -> "delete"
  | Replace -> "replace"
  | Interior -> "interior"

(* Updates come in blocks of ten with exactly this mix, shuffled per
   block, so any prefix of the stream has the stated shares (40% appends,
   30% deletes, 20% year replacements, 10% interior inserts) and the cost
   of a run does not hinge on how many rebuild-triggering inserts the
   seed happened to draw. *)
let block = [| Append; Append; Append; Append; Delete; Delete; Delete; Replace; Replace; Interior |]

let article k =
  E.make "article"
    ~attrs:[ ("key", Printf.sprintf "perf/%d" k) ]
    ~children:
      [
        E.leaf "author" (Printf.sprintf "Author %d" k);
        E.leaf "title" (Printf.sprintf "Maintained Entry %d" k);
        E.leaf "year" (List.nth years (k mod 40));
        E.leaf "url" (Printf.sprintf "db/perf/%d.html" k);
      ]

(* Update number [k] of kind [kind], drawn in O(1) against the document
   as it stands.  An interior insert puts a new article among the
   [articles] records that open the document (the generator groups
   records by kind, articles first), where a new article belongs: ahead
   of more than half the summary's mass, so the default [`Threshold 0.5]
   policy rebuilds after every one of them. *)
let update rng ~articles doc kind k =
  let module D = Xmlest.Document in
  let module U = Xmlest.Update in
  let node () = 1 + Rng.int rng (D.size doc - 1) in
  match kind with
  | Append -> U.Insert { parent = 0; index = max_int; subtree = article k }
  | Delete -> U.Delete { node = node () }
  | Replace ->
    (* about one node in nine is a year *)
    let rec year tries =
      let v = node () in
      if tries = 0 || String.equal (D.tag doc v) "year" then v else year (tries - 1)
    in
    U.Replace_text { node = year 100; text = List.nth years (Rng.int rng 40) }
  | Interior -> U.Insert { parent = 0; index = Rng.int rng articles; subtree = article k }
