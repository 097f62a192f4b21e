(* Shared fixtures and QCheck generators for the test suites. *)

open Xmlest_core

(* --- Deterministic QCheck seeding ------------------------------------- *)

(* Every QCheck suite runs from one fixed seed so failures reproduce
   across machines and runs; [QCHECK_SEED] overrides it (same variable
   qcheck itself honors).  The seed is printed on failure, so a shrunk
   counterexample can be replayed with
   [QCHECK_SEED=<seed> dune runtest]. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some seed -> seed
    | None -> 0x5eed)
  | None -> 0x5eed

let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| qcheck_seed |])
      test
  in
  let run switch =
    try run switch
    with e ->
      Printf.eprintf
        "[qcheck] failing run used seed %d (set QCHECK_SEED to replay)\n%!"
        qcheck_seed;
      raise e
  in
  (name, speed, run)

(* The example document of the paper's Fig. 1: a department with faculty,
   staff, lecturer, research scientist; faculty have TAs and RAs. *)
let fig1 () =
  let e = Xmlest.Elem.make in
  let leaf tag = Xmlest.Elem.make tag in
  e "department"
    ~children:
      [
        e "faculty" ~children:[ leaf "name"; leaf "RA" ];
        e "staff" ~children:[ leaf "name" ];
        e "faculty"
          ~children:[ leaf "name"; leaf "secretary"; leaf "RA"; leaf "RA"; leaf "RA" ];
        e "lecturer" ~children:[ leaf "name"; leaf "TA"; leaf "TA"; leaf "TA" ];
        e "faculty"
          ~children:[ leaf "name"; leaf "secretary"; leaf "TA"; leaf "RA"; leaf "RA"; leaf "TA" ];
        e "research_scientist"
          ~children:
            [ leaf "name"; leaf "secretary"; leaf "RA"; leaf "RA"; leaf "RA"; leaf "RA" ];
      ]

let fig1_doc () = Xmlest.Document.of_elem (fig1 ())

(* A small deeply-nested fixture: sections within sections. *)
let nested ~depth ~fanout =
  let rec go d =
    if d = 0 then Xmlest.Elem.leaf "para" "text"
    else
      Xmlest.Elem.make "section" ~children:(List.init fanout (fun _ -> go (d - 1)))
  in
  Xmlest.Elem.make "doc" ~children:[ go depth ]

(* --- Element-tree helpers ---------------------------------------------- *)

let rec elem_fold f acc (e : Xmlest.Elem.t) =
  List.fold_left (elem_fold f) (f acc e) e.children

let rec elem_depth (e : Xmlest.Elem.t) =
  1 + List.fold_left (fun acc c -> Int.max acc (elem_depth c)) 0 e.children

let elem_count p e = elem_fold (fun acc e -> if p e then acc + 1 else acc) 0 e

let rec elem_equal (a : Xmlest.Elem.t) (b : Xmlest.Elem.t) =
  String.equal a.tag b.tag
  && List.equal
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       a.attrs b.attrs
  && String.equal a.text b.text
  && List.equal elem_equal a.children b.children

(* Single line, text cut at 12 characters: for counterexample printers. *)
let rec pp_elem ppf (e : Xmlest.Elem.t) =
  let cut s = if String.length s <= 12 then s else String.sub s 0 12 ^ "..." in
  Format.fprintf ppf "<%s" e.tag;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%S" k v) e.attrs;
  if e.text = "" && e.children = [] then Format.fprintf ppf "/>"
  else begin
    Format.fprintf ppf ">%s" (cut e.text);
    List.iter (pp_elem ppf) e.children;
    Format.fprintf ppf "</%s>" e.tag
  end

(* --- Document helpers -------------------------------------------------- *)

(* Child indices of [v] in document order, read off the subtree ranges. *)
let children doc v =
  let last = Xmlest.Document.subtree_last doc v in
  let rec go acc u =
    if u > last then List.rev acc
    else go (u :: acc) (Xmlest.Document.subtree_last doc u + 1)
  in
  go [] (v + 1)

let tag_count doc tag = Array.length (Xmlest.Document.nodes_with_tag doc tag)

let pred_count doc p = Array.length (Xmlest.Predicate.matching_nodes doc p)

(* (ancestor, descendant) pairs within [nodes] (sorted by start), from
   the nearest-ancestor resolver with [nodes] as its only set. *)
let nesting_pairs doc nodes =
  let r = Xmlest.Interval_ops.resolver 1 in
  Array.iter
    (fun v ->
      Xmlest.Interval_ops.resolve r
        ~start_pos:(Xmlest.Document.start_pos doc v)
        ~end_pos:(Xmlest.Document.end_pos doc v)
        ~cell:v ~matched:[| 0 |] ~nmatched:1
        ~on_nearest:(fun _ ~covered:_ ~covering:_ -> ()))
    nodes;
  Xmlest.Interval_ops.nesting_pairs r 0

(* --- Position-histogram helpers ---------------------------------------- *)

(* The histogram of every node (the predicate TRUE), one [add] per node. *)
let population doc ~grid =
  let h = Xmlest.Position_histogram.create_empty grid in
  Xmlest.Document.iter doc (fun v ->
      let i, j =
        Xmlest.Grid.cell_of_node grid
          ~start_pos:(Xmlest.Document.start_pos doc v)
          ~end_pos:(Xmlest.Document.end_pos doc v)
      in
      Xmlest.Position_histogram.add h ~i ~j 1.0);
  h

(* Compatible grids and identical cell counts. *)
let hist_equal a b =
  let open Xmlest.Position_histogram in
  let ia, va = nonzero a and ib, vb = nonzero b in
  Xmlest.Grid.compatible (grid a) (grid b)
  && Array.length ia = Array.length ib
  && Array.for_all2 Int.equal ia ib
  && Array.for_all2 Float.equal va vb

(* [nonzero h] against a fresh scan of the cells through [get]: the cells
   whose count is not ±0.0 (a NaN counts), upper triangle, row-major,
   with the same indices and the same bits; [nonzero_cells] agrees. *)
let nonzero_is_fresh_scan h =
  let open Xmlest.Position_histogram in
  let g = (grid h).Xmlest.Grid.size in
  let cells = ref [] in
  for i = g - 1 downto 0 do
    for j = g - 1 downto i do
      let v = get h ~i ~j in
      if not (Float.equal v 0.0) then cells := ((i * g) + j, v) :: !cells
    done
  done;
  let expect = Array.of_list !cells in
  let at, v = nonzero h in
  let n = Array.length expect in
  Int.equal (Array.length at) n
  && Int.equal (Array.length v) n
  && Int.equal (nonzero_cells h) n
  && Array.for_all2 (fun x (c, _) -> Int.equal x c) at expect
  && Array.for_all2
       (fun y (_, w) -> Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float w))
       v expect

(* The covering cells (m, n) of cell (i, j) with their fractions, in
   [Coverage_histogram.rows] order. *)
let iter_covers cvg ~i ~j f =
  let row_off, covering, frac = Xmlest.Coverage_histogram.rows cvg in
  let g = (Xmlest.Coverage_histogram.grid cvg).Xmlest.Grid.size in
  let c = (i * g) + j in
  for k = row_off.(c) to row_off.(c + 1) - 1 do
    f ~m:(covering.(k) / g) ~n:(covering.(k) mod g) frac.(k)
  done

(* Lemma 1: a non-zero cell [(i, j)] implies zero counts at every [(k, l)]
   with [i < k <= j < l] or [k < i <= l < j]. *)
let obeys_lemma1 h =
  let cells = ref [] in
  Xmlest.Position_histogram.iter_nonzero h (fun ~i ~j _ -> cells := (i, j) :: !cells);
  let forbidden (i, j) (k, l) =
    (i < k && k < j && j < l) || (i < l && l < j && k < i)
  in
  List.for_all
    (fun a -> List.for_all (fun b -> not (forbidden a b)) !cells)
    !cells

(* --- Updates ----------------------------------------------------------- *)

(* Apply one update to the document alone, in place, with no statistics
   maintenance: the edited document a fresh build is compared against. *)
let apply_doc doc (u : Xmlest.Update.t) =
  match u with
  | Insert { parent; index; subtree } ->
    ignore (Xmlest.Document.insert_subtree doc ~parent ~index subtree : int)
  | Delete { node } -> Xmlest.Document.delete_subtree doc node
  | Replace_text { node; text } -> Xmlest.Document.replace_text doc node text
  | Replace_attrs { node; attrs } -> Xmlest.Document.replace_attrs doc node attrs

(* --- Patterns ---------------------------------------------------------- *)

(* [chain [p1; p2; p3]] is the path pattern [p1//p2//p3]. *)
let rec chain = function
  | [] -> invalid_arg "Test_util.chain: empty predicate list"
  | [ p ] -> Xmlest.Pattern.node p
  | p :: rest -> Xmlest.Pattern.node ~edges:[ (Xmlest.Pattern.Descendant, chain rest) ] p

(* --- Random element trees for property tests ------------------------- *)

let tag_pool = [| "a"; "b"; "c"; "d"; "e" |]

(* Random tree with [n] nodes, built by repeatedly attaching a fresh node
   to a random existing node; tags drawn from a small pool so that
   structural predicates select non-trivial, often-nested subsets. *)
type mut = { mtag : string; mutable mchildren : mut list }

let random_elem st n =
  let tag () = tag_pool.(Random.State.int st (Array.length tag_pool)) in
  let root = { mtag = tag (); mchildren = [] } in
  let nodes = Array.make n root in
  for k = 1 to n - 1 do
    let parent = nodes.(Random.State.int st k) in
    let node = { mtag = tag (); mchildren = [] } in
    parent.mchildren <- node :: parent.mchildren;
    nodes.(k) <- node
  done;
  let rec freeze m =
    Xmlest.Elem.make m.mtag ~children:(List.rev_map freeze m.mchildren)
  in
  freeze root

let elem_gen ?(max_nodes = 60) () st =
  random_elem st (1 + Random.State.int st max_nodes)

let elem_arbitrary ?max_nodes () =
  QCheck.make
    ~print:(fun e -> Format.asprintf "%a" pp_elem e)
    (elem_gen ?max_nodes ())

let doc_gen ?max_nodes () st = Xmlest.Document.of_elem (elem_gen ?max_nodes () st)

(* A document plus two tag predicates drawn from the pool. *)
let doc_two_tags_gen ?max_nodes () st =
  let tag () = tag_pool.(Random.State.int st (Array.length tag_pool)) in
  let e = elem_gen ?max_nodes () st in
  (e, Xmlest.Document.of_elem e, tag (), tag ())

let doc_two_tags_arbitrary ?max_nodes () =
  QCheck.make
    ~print:(fun (e, _, t1, t2) ->
      Format.asprintf "tags (%s, %s) in %a" t1 t2 pp_elem e)
    (doc_two_tags_gen ?max_nodes ())

(* Exact pair count by definition (independent of the engine under test). *)
let brute_force_pairs doc anc_pred desc_pred ~axis =
  let n = Xmlest.Document.size doc in
  let total = ref 0 in
  for a = 0 to n - 1 do
    if Xmlest.Predicate.eval anc_pred doc a then
      for d = 0 to n - 1 do
        if Xmlest.Predicate.eval desc_pred doc d then begin
          let ok =
            match axis with
            | `Descendant -> Xmlest.Document.is_ancestor doc ~anc:a ~desc:d
            | `Child -> Xmlest.Document.parent doc d = a
          in
          if ok then incr total
        end
      done
  done;
  !total

(* Brute-force twig match count by enumerating all mappings. *)
let brute_force_twig doc (pattern : Xmlest.Pattern.t) =
  let n = Xmlest.Document.size doc in
  let rec count (p : Xmlest.Pattern.t) v =
    if not (Xmlest.Predicate.eval p.Xmlest.Pattern.pred doc v) then 0
    else
      List.fold_left
        (fun acc (axis, child) ->
          if acc = 0 then 0
          else begin
            let sub = ref 0 in
            for u = 0 to n - 1 do
              let related =
                match axis with
                | Xmlest.Pattern.Descendant ->
                  Xmlest.Document.is_ancestor doc ~anc:v ~desc:u
                | Xmlest.Pattern.Child -> Xmlest.Document.parent doc u = v
              in
              if related then sub := !sub + count child u
            done;
            acc * !sub
          end)
        1 p.Xmlest.Pattern.edges
  in
  let total = ref 0 in
  for v = 0 to n - 1 do
    total := !total + count pattern v
  done;
  !total

let float_close ?(tolerance = 1e-9) a b =
  Float.abs (a -. b)
  <= tolerance *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at k = k + nn <= nh && (String.sub haystack k nn = needle || at (k + 1)) in
  at 0

(* --- The DBLP predicate sets ------------------------------------------ *)

(* The paper's Table 1: tags, the cite prefixes and the decade
   compounds. *)
let dblp_table1_predicates () =
  let module P = Xmlest.Predicate in
  let decade d = P.any_of (List.init 10 (fun k -> P.text_eq ~tag:"year" (string_of_int (d + k)))) in
  List.map P.tag [ "article"; "author"; "book"; "cdrom"; "cite"; "title"; "url"; "year" ]
  @ [
      P.text_prefix ~tag:"cite" "conf"; P.text_prefix ~tag:"cite" "journal"; decade 1980;
      decade 1990;
    ]

(* The canonical 52: Table 1 plus the 40 per-year base predicates that the
   decade compounds resolve against. *)
let dblp_predicates () =
  dblp_table1_predicates ()
  @ List.init 40 (fun k -> Xmlest.Predicate.text_eq ~tag:"year" (string_of_int (1960 + k)))

(* --- The .xsum store ---------------------------------------------------- *)

(* [f] over a temporary store holding [s], removed afterwards. *)
let with_store s f =
  let path = Filename.temp_file "xmlest" ".xsum" in
  Xmlest.Summary.save_store s path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* [s] saved to a store and opened again. *)
let reopened s =
  with_store s (fun path ->
      match Xmlest.Summary.load_store path with
      | Ok s' -> s'
      | Error e -> Alcotest.failf "store open failed: %s" e)

(* --- The estimate contract -------------------------------------------- *)

(* A random twig over [tag_pool] whose node predicates mix tags with
   conjunctions (two different tags contradict), negations, text,
   attribute and level tests and an absent tag, so that patterns mix
   satisfiable nodes with ones [Pattern_check] proves empty. *)
let contract_pattern rng =
  let module P = Xmlest.Predicate in
  let module Sm = Xmlest.Splitmix in
  let tag () = P.Tag (Sm.choose rng tag_pool) in
  let pred () =
    match Sm.int rng 8 with
    | 0 -> P.And (tag (), tag ())
    | 1 -> P.Not (tag ())
    | 2 -> P.Or (tag (), P.Text_eq "x")
    | 3 -> P.And (tag (), P.Attr_eq ("k", "v"))
    | 4 -> P.And (tag (), P.Level_eq (Sm.int rng 4))
    | 5 -> P.Tag "zzz"
    | _ -> tag ()
  in
  let rec gen depth =
    let edge () =
      let axis = if Sm.bool rng 0.5 then Xmlest.Pattern.Descendant else Xmlest.Pattern.Child in
      (axis, gen (depth + 1))
    in
    let edges = if depth >= 2 then [] else List.init (Sm.int rng 3) (fun _ -> edge ()) in
    Xmlest.Pattern.node ~edges (pred ())
  in
  gen 0

(* Every estimate is finite and non-negative, and exactly 0.0 once the
   pattern check proves the pattern empty. *)
let estimate_contract s p =
  let sound e = Float.is_finite e && e >= 0.0 in
  let checked, diags = Xmlest.Summary.estimate_checked s p in
  sound (Xmlest.Summary.estimate s p)
  && sound checked
  && ((not (Xmlest.Pattern_check.unsatisfiable diags)) || Float.equal checked 0.0)
