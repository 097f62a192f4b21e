(* The original per-predicate summary construction, kept as the
   differential oracle for [Summary.build]: every histogram comes from its
   own module's reference constructor, one predicate at a time (~4-5
   document traversals per predicate, AST-interpreted evaluation).  It
   shares no construction code with the library's fused and streamed
   builds, so agreement through [Summary]'s public accessors pins both. *)

open Xmlest_core
open Xmlest

type entry = {
  pred : Predicate.t;
  hist : Position_histogram.t;
  no_overlap : bool;
  cvg : Coverage_histogram.t option;
  lvl : Level_histogram.t option;
}

type t = {
  grid : Grid.t;
  pop : Position_histogram.t;
  entries : entry list;  (* unique by name, first-occurrence order *)
}

let build_entry ~grid ~with_levels doc pred =
  let nodes = Predicate.matching_nodes doc pred in
  let no_overlap = not (Interval_ops.has_nesting doc nodes) in
  {
    pred;
    hist = Position_histogram.build doc ~grid pred;
    no_overlap;
    cvg =
      (if no_overlap && Array.length nodes > 0 then
         Some (Coverage_histogram.build doc ~grid pred)
       else None);
    lvl = (if with_levels then Some (Level_histogram.build doc pred) else None);
  }

(* Positions the equi-depth boundaries are drawn from: the starts and ends
   of the nodes matching the predicates, once per occurrence in the list;
   every node when they match nothing. *)
let summary_positions doc preds =
  let out = ref [] in
  List.iter
    (fun pred ->
      Array.iter
        (fun v -> out := Document.start_pos doc v :: Document.end_pos doc v :: !out)
        (Predicate.matching_nodes doc pred))
    preds;
  let positions =
    match !out with
    | [] ->
      Array.init (2 * Document.size doc) (fun k ->
          if k land 1 = 0 then Document.start_pos doc (k / 2)
          else Document.end_pos doc (k / 2))
    | l -> Array.of_list l
  in
  Array.sort Int.compare positions;
  positions

let build ?(grid_size = 10) ?(grid_kind = `Uniform) ?(with_levels = true) doc preds =
  let max_pos = Document.max_pos doc in
  let grid =
    match grid_kind with
    | `Uniform -> Grid.create ~size:grid_size ~max_pos
    | `Equidepth ->
      Grid.equidepth ~size:grid_size ~max_pos
        ~positions:(summary_positions doc preds)
  in
  let entries =
    List.fold_left
      (fun acc pred ->
        let key = Predicate.name pred in
        if List.exists (fun e -> String.equal (Predicate.name e.pred) key) acc
        then acc
        else build_entry ~grid ~with_levels doc pred :: acc)
      [] preds
  in
  { grid; pop = Test_util.population doc ~grid; entries = List.rev entries }

(* --- Bit-for-bit agreement through the public accessors -------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b =
  Int.equal (Array.length a) (Array.length b) && Array.for_all2 same_float a b

let same_grid (a : Grid.t) (b : Grid.t) =
  Int.equal a.size b.size
  && Int.equal a.max_pos b.max_pos
  && Int.equal (Array.length a.boundaries) (Array.length b.boundaries)
  && Array.for_all2 Int.equal a.boundaries b.boundaries

let same_hist a b =
  let cells h =
    let out = ref [] in
    Position_histogram.iter_nonzero h (fun ~i ~j v -> out := (i, j, v) :: !out);
    !out
  in
  same_float (Position_histogram.total a) (Position_histogram.total b)
  && List.equal
       (fun (i, j, v) (i', j', v') -> Int.equal i i' && Int.equal j j' && same_float v v')
       (cells a) (cells b)

let same_cvg a b =
  let entries c =
    Coverage_histogram.fold_entries c ~init:[] ~f:(fun acc ~covered ~covering f ->
        (covered, covering, f) :: acc)
  in
  same_floats (Coverage_histogram.populations a) (Coverage_histogram.populations b)
  && List.equal
       (fun (c, g, f) (c', g', f') -> Int.equal c c' && Int.equal g g' && same_float f f')
       (entries a) (entries b)

let same_lvl a b = same_floats (Level_histogram.counts a) (Level_histogram.counts b)

let same_option same a b =
  match (a, b) with
  | Some x, Some y -> same x y
  | None, None -> true
  | Some _, None | None, Some _ -> false

(* [grid], [population], and per predicate [histogram], [coverage],
   [level] and [has_no_overlap] of [s] equal the oracle's, bit for bit. *)
let agrees t s =
  same_grid t.grid (Summary.grid s)
  && same_hist t.pop (Summary.population s)
  && List.for_all
       (fun e ->
         same_hist e.hist (Summary.histogram s e.pred)
         && Bool.equal e.no_overlap (Summary.has_no_overlap s e.pred)
         && same_option same_cvg e.cvg (Summary.coverage s e.pred)
         && same_option same_lvl e.lvl (Summary.level s e.pred))
       t.entries
