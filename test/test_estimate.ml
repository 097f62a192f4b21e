(* Tests for the estimators: pH-join (Fig. 9), no-overlap coverage
   estimation (Fig. 10), compound-predicate histograms (Sec. 3.4), the twig
   estimator, and the baselines. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check
let qcheck = Test_util.to_alcotest (* seeded: see test_util.ml *)

(* Clamp to the position count so random (doc, size) draws stay legal. *)
let grid_of doc size =
  let max_pos = Xmlest.Document.max_pos doc in
  Xmlest.Grid.create ~size:(min size (max_pos + 1)) ~max_pos

let hist doc size pred =
  Xmlest.Position_histogram.build doc ~grid:(grid_of doc size) pred

let tagp = Xmlest.Predicate.tag

let exact doc t1 t2 =
  Xmlest.Structural_join.count_pairs doc
    (Xmlest.Document.nodes_with_tag doc t1)
    (Xmlest.Document.nodes_with_tag doc t2)

(* --- pH-join --------------------------------------------------------------- *)

let test_ph_join_paper_example () =
  (* Sec. 3.2: faculty-TA on Fig. 1 with 2×2 histograms.  The paper's
     numbering yields 0.6; with our (slightly different) position
     assignment the estimate differs in the decimals but must stay far
     below the naive 15 and the upper bound 5. *)
  let doc = Test_util.fig1_doc () in
  let anc = hist doc 2 (tagp "faculty") and desc = hist doc 2 (tagp "TA") in
  let est = Xmlest.Ph_join.estimate ~anc ~desc () in
  Alcotest.(check bool) "positive" true (est > 0.0);
  Alcotest.(check bool) "far below naive (15)" true (est < 5.0)

let test_ph_join_empty () =
  let doc = Test_util.fig1_doc () in
  let anc = hist doc 4 (tagp "faculty") in
  let desc = hist doc 4 (tagp "nonexistent") in
  check (Alcotest.float 1e-9) "empty desc -> 0" 0.0
    (Xmlest.Ph_join.estimate ~anc ~desc ());
  check (Alcotest.float 1e-9) "empty anc -> 0" 0.0
    (Xmlest.Ph_join.estimate ~anc:desc ~desc:anc ())

let test_ph_join_incompatible_grids () =
  let doc = Test_util.fig1_doc () in
  let anc = hist doc 4 (tagp "faculty") and desc = hist doc 8 (tagp "TA") in
  Alcotest.check_raises "grid mismatch"
    (Invalid_argument "Ph_join: histograms have incompatible grids") (fun () ->
      ignore (Xmlest.Ph_join.estimate ~anc ~desc ()))

(* The decisive correctness property: with one position per bucket the
   geometric weights become exact, so the pH-join estimate equals the true
   join size — in both directions. *)
let fine_grid_exact direction =
  QCheck.Test.make ~count:150
    ~name:
      (match direction with
      | Xmlest.Ph_join.Ancestor_based -> "fine-grid exactness (ancestor-based)"
      | Xmlest.Ph_join.Descendant_based -> "fine-grid exactness (descendant-based)")
    (Test_util.doc_two_tags_arbitrary ~max_nodes:40 ())
    (fun (_, doc, t1, t2) ->
      (* Disjoint node sets: for self-joins (t1 = t2) the shared-cell 1/4
         weight also counts pairing a node with itself, so even fine grids
         stay approximate — as in the paper, which always joins two
         distinct predicates. *)
      QCheck.assume (t1 <> t2);
      let g =
        Xmlest.Grid.create
          ~size:(Xmlest.Document.max_pos doc + 1)
          ~max_pos:(Xmlest.Document.max_pos doc)
      in
      let anc = Xmlest.Position_histogram.build doc ~grid:g (tagp t1) in
      let desc = Xmlest.Position_histogram.build doc ~grid:g (tagp t2) in
      let est = Xmlest.Ph_join.estimate ~direction ~anc ~desc () in
      Test_util.float_close est (float_of_int (exact doc t1 t2)))

let prop_fine_grid_anc = fine_grid_exact Xmlest.Ph_join.Ancestor_based
let prop_fine_grid_desc = fine_grid_exact Xmlest.Ph_join.Descendant_based

let prop_ph_join_nonnegative =
  QCheck.Test.make ~count:200 ~name:"pH-join estimate is non-negative"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:60 ()) (int_range 1 12))
    (fun ((_, doc, t1, t2), size) ->
      let anc = hist doc size (tagp t1) and desc = hist doc size (tagp t2) in
      Xmlest.Ph_join.estimate ~anc ~desc () >= 0.0
      && Xmlest.Ph_join.estimate ~direction:Xmlest.Ph_join.Descendant_based ~anc
           ~desc ()
         >= 0.0)

let prop_ph_join_below_naive =
  QCheck.Test.make ~count:200 ~name:"pH-join estimate <= naive product"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:60 ()) (int_range 1 12))
    (fun ((_, doc, t1, t2), size) ->
      let anc = hist doc size (tagp t1) and desc = hist doc size (tagp t2) in
      let naive =
        Xmlest.Position_histogram.total anc *. Xmlest.Position_histogram.total desc
      in
      Xmlest.Ph_join.estimate ~anc ~desc () <= naive +. 1e-6)

let test_ph_join_single_bucket_degenerate () =
  (* With g = 1 everything collapses into the single on-diagonal cell:
     estimate = |anc| × |desc| / 12. *)
  let doc = Test_util.fig1_doc () in
  let anc = hist doc 1 (tagp "faculty") and desc = hist doc 1 (tagp "TA") in
  check (Alcotest.float 1e-9) "n*m/12" (3.0 *. 5.0 /. 12.0)
    (Xmlest.Ph_join.estimate ~anc ~desc ())

let test_ph_join_estimate_cells_total () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let anc = hist doc 10 (tagp "department") and desc = hist doc 10 (tagp "email") in
  (* The per-cell estimates of the outer histogram's non-zero cells sum to
     the total bit for bit, in both directions. *)
  let cells_sum ~coefs outer =
    Array.fold_left ( +. ) 0.0
      (snd (Xmlest.Ph_join.weigh ~coefs (Xmlest.Position_histogram.nonzero outer)))
  in
  check (Alcotest.float 0.0) "cells sum to total"
    (Xmlest.Ph_join.estimate ~anc ~desc ())
    (cells_sum ~coefs:(Xmlest.Ph_join.descendant_coefficients desc) anc);
  check (Alcotest.float 0.0) "descendant-based cells sum to total"
    (Xmlest.Ph_join.estimate ~direction:Xmlest.Ph_join.Descendant_based ~anc ~desc ())
    (cells_sum ~coefs:(Xmlest.Ph_join.ancestor_coefficients anc) desc)

let test_coefficients_match_join () =
  (* The precomputed coefficient array reproduces the ancestor-based
     estimate: Σ anc[i][j] × coef[i][j]. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let g = grid_of doc 10 in
  let anc = Xmlest.Position_histogram.build doc ~grid:g (tagp "manager") in
  let desc = Xmlest.Position_histogram.build doc ~grid:g (tagp "employee") in
  let coef = Xmlest.Ph_join.descendant_coefficients desc in
  let total = ref 0.0 in
  Xmlest.Position_histogram.iter_nonzero anc (fun ~i ~j c ->
      total := !total +. (c *. coef.((i * 10) + j)));
  check (Alcotest.float 1e-6) "coefficient form agrees"
    (Xmlest.Ph_join.estimate ~anc ~desc ())
    !total

let prop_cell_pair_weights_sum_to_estimate =
  QCheck.Test.make ~count:150 ~name:"cell-pair weights sum to pH-join estimate"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ()) (int_range 1 10))
    (fun ((_, doc, t1, t2), size) ->
      let anc = hist doc size (tagp t1) and desc = hist doc size (tagp t2) in
      let check direction =
        let by_pairs = ref 0.0 in
        Xmlest.Position_histogram.iter_nonzero anc (fun ~i ~j a ->
            Xmlest.Position_histogram.iter_nonzero desc (fun ~i:k ~j:l d ->
                by_pairs :=
                  !by_pairs
                  +. a *. d
                     *. Xmlest.Ph_join.cell_pair_weight ~direction ~anc:(i, j)
                          ~desc:(k, l) ()));
        Test_util.float_close ~tolerance:1e-9 !by_pairs
          (Xmlest.Ph_join.estimate ~direction ~anc ~desc ())
      in
      check Xmlest.Ph_join.Ancestor_based && check Xmlest.Ph_join.Descendant_based)

(* The memoized-coefficient fast path and the dense passes share one
   count x coefficient loop, so on random histograms they agree exactly,
   in both directions. *)
let prop_cached_equals_dense =
  QCheck.Test.make ~count:200
    ~name:"cached coefficients: estimate_with = estimate"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:60 ()) (int_range 1 16))
    (fun ((_, doc, t1, t2), size) ->
      let anc = hist doc size (tagp t1) and desc = hist doc size (tagp t2) in
      let agree direction =
        let coefs =
          match direction with
          | Xmlest.Ph_join.Ancestor_based ->
            Xmlest.Ph_join.descendant_coefficients desc
          | Xmlest.Ph_join.Descendant_based ->
            Xmlest.Ph_join.ancestor_coefficients anc
        in
        Float.equal
          (Xmlest.Ph_join.estimate_with ~direction ~coefs ~anc ~desc ())
          (Xmlest.Ph_join.estimate ~direction ~anc ~desc ())
      in
      agree Xmlest.Ph_join.Ancestor_based && agree Xmlest.Ph_join.Descendant_based)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Fig. 9's coefficients evaluated directly, each partial sum over its
   own cells, combined in the order [ph_join.ml] combines them.  With
   integer counts every term and every partial sum is exact, so the
   passes' summation order cannot change a bit. *)
let direct_coefficients h =
  let g = (Xmlest.Position_histogram.grid h).Xmlest.Grid.size in
  let b i j = if i <= j then Xmlest.Position_histogram.get h ~i ~j else 0.0 in
  let sum lo1 hi1 lo2 hi2 =
    let s = ref 0.0 in
    for k = lo1 to hi1 do
      for l = lo2 to hi2 do
        s := !s +. b k l
      done
    done;
    !s
  in
  let desc = Array.make (g * g) 0.0 and anc = Array.make (g * g) 0.0 in
  for i = 0 to g - 1 do
    for j = i to g - 1 do
      desc.((i * g) + j) <-
        (if Int.equal i j then b i j /. 12.0
         else
           sum (i + 1) (j - 1) (i + 1) (j - 1)
           +. (b i j /. 4.0)
           +. (sum i i i (j - 1) -. (b i i /. 2.0))
           +. (sum (i + 1) j j j -. (b j j /. 2.0)));
      anc.((i * g) + j) <-
        sum 0 (i - 1) (j + 1) (g - 1)
        +. sum i i (j + 1) (g - 1)
        +. sum 0 (i - 1) j j
        +. (if Int.equal i j then b i j /. 12.0 else b i j /. 4.0)
    done
  done;
  (desc, anc)

let prop_coefficients_bit_exact =
  QCheck.Test.make ~count:200 ~name:"coefficient passes = Fig. 9 sums, bit for bit"
    QCheck.(triple (oneofl [ 1; 2; 3; 10 ]) bool (int_bound 1_000_000))
    (fun (size, uniform, seed) ->
      let st = Random.State.make [| seed |] in
      let max_pos = 200 in
      let grid =
        if uniform then Xmlest.Grid.create ~size ~max_pos
        else
          Xmlest.Grid.equidepth ~size ~max_pos
            ~positions:(Array.init 50 (fun _ -> Random.State.int st (max_pos + 1)))
      in
      let h = Xmlest.Position_histogram.create_empty grid in
      let g = grid.Xmlest.Grid.size in
      for i = 0 to g - 1 do
        for j = i to g - 1 do
          if Random.State.bool st then
            Xmlest.Position_histogram.add h ~i ~j
              (float_of_int (Random.State.int st 1000))
        done
      done;
      let desc, anc = direct_coefficients h in
      let bits a b = Array.for_all2 same_bits a b in
      bits desc (Xmlest.Ph_join.descendant_coefficients h)
      && bits anc (Xmlest.Ph_join.ancestor_coefficients h))

let test_estimate_with_checks_length () =
  let doc = Test_util.fig1_doc () in
  let anc = hist doc 4 (tagp "faculty") and desc = hist doc 4 (tagp "TA") in
  Alcotest.check_raises "wrong coefficient array length"
    (Invalid_argument
       "Ph_join.estimate_with: 3 coefficients for a 4x4 grid") (fun () ->
      ignore
        (Xmlest.Ph_join.estimate_with ~coefs:(Array.make 3 0.0) ~anc ~desc ()))

(* --- Child_join / Level_position_histogram (extension) --------------------- *)

let lph doc size pred =
  Xmlest.Level_position_histogram.build doc ~grid:(grid_of doc size) pred

let test_lph_totals_match_hist () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let pred = tagp "employee" in
  let h = hist doc 10 pred and l = lph doc 10 pred in
  let cell_total ~i ~j =
    Array.fold_left (fun acc (_, k) -> acc +. k) 0.0
      (Xmlest.Level_position_histogram.levels_in l ~i ~j)
  in
  let grand = ref 0.0 in
  for i = 0 to 9 do
    for j = i to 9 do
      grand := !grand +. cell_total ~i ~j
    done
  done;
  check (Alcotest.float 1e-9) "grand totals agree"
    (Xmlest.Position_histogram.total h)
    !grand;
  Xmlest.Position_histogram.iter_nonzero h (fun ~i ~j v ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "cell (%d,%d)" i j)
        v (cell_total ~i ~j))

let prop_child_join_fine_grid_exact =
  QCheck.Test.make ~count:120 ~name:"child join fine-grid exactness"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:40 ())
    (fun (_, doc, t1, t2) ->
      QCheck.assume (t1 <> t2);
      let g =
        Xmlest.Grid.create
          ~size:(Xmlest.Document.max_pos doc + 1)
          ~max_pos:(Xmlest.Document.max_pos doc)
      in
      let anc = Xmlest.Position_histogram.build doc ~grid:g (tagp t1) in
      let desc = Xmlest.Position_histogram.build doc ~grid:g (tagp t2) in
      let anc_levels = Xmlest.Level_position_histogram.build doc ~grid:g (tagp t1) in
      let desc_levels = Xmlest.Level_position_histogram.build doc ~grid:g (tagp t2) in
      let est = Xmlest.Position_histogram.total (Xmlest.Child_join.estimate_cells ~anc ~desc ~anc_levels ~desc_levels ()) in
      let real =
        Test_util.brute_force_pairs doc (tagp t1) (tagp t2) ~axis:`Child
      in
      Test_util.float_close est (float_of_int real))

let prop_child_join_bounded_by_ph_join =
  QCheck.Test.make ~count:120 ~name:"child join <= ancestor-based pH-join"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ()) (int_range 1 10))
    (fun ((_, doc, t1, t2), size) ->
      let anc = hist doc size (tagp t1) and desc = hist doc size (tagp t2) in
      let anc_levels = lph doc size (tagp t1) in
      let desc_levels = lph doc size (tagp t2) in
      Xmlest.Position_histogram.total (Xmlest.Child_join.estimate_cells ~anc ~desc ~anc_levels ~desc_levels ())
      <= Xmlest.Ph_join.estimate ~anc ~desc () +. 1e-9)

let test_child_join_staff () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let anc = hist doc 10 (tagp "manager") and desc = hist doc 10 (tagp "department") in
  let anc_levels = lph doc 10 (tagp "manager") in
  let desc_levels = lph doc 10 (tagp "department") in
  let child_est = Xmlest.Position_histogram.total (Xmlest.Child_join.estimate_cells ~anc ~desc ~anc_levels ~desc_levels ()) in
  let anc_desc_est = Xmlest.Ph_join.estimate ~anc ~desc () in
  let real_child =
    Xmlest.Structural_join.count_pairs ~axis:`Child doc
      (Xmlest.Document.nodes_with_tag doc "manager")
      (Xmlest.Document.nodes_with_tag doc "department")
  in
  let real_desc =
    Xmlest.Structural_join.count_pairs doc
      (Xmlest.Document.nodes_with_tag doc "manager")
      (Xmlest.Document.nodes_with_tag doc "department")
  in
  (* the child estimate must be closer to the child truth than the plain
     ancestor-descendant estimate is *)
  Alcotest.(check bool) "child estimate is an improvement" true
    (Float.abs (child_est -. float_of_int real_child)
    < Float.abs (anc_desc_est -. float_of_int real_child));
  Alcotest.(check bool) "sanity: child < descendant truth" true
    (real_child <= real_desc)

(* --- Order join (following axis, extension) --------------------------------- *)

let test_following_fig1 () =
  let doc = Test_util.fig1_doc () in
  (* TAs following faculties: lecturer's 3 TAs follow faculty 1 and 2;
     faculty 3's TAs follow faculties 1 and 2 as well. *)
  let before = hist doc 31 (tagp "faculty") and after = hist doc 31 (tagp "TA") in
  let est = Xmlest.Order_join.estimate ~before ~after () in
  let real =
    Xmlest.Structural_join.count_following doc
      (Xmlest.Document.nodes_with_tag doc "faculty")
      (Xmlest.Document.nodes_with_tag doc "TA")
  in
  Alcotest.(check bool) "positive" true (est > 0.0);
  Alcotest.(check bool) "right magnitude" true
    (est > 0.5 *. float_of_int real && est < 2.0 *. float_of_int real)

let test_count_following_brute () =
  let doc = Test_util.fig1_doc () in
  let brute t1 t2 =
    let total = ref 0 in
    Array.iter
      (fun u ->
        Array.iter
          (fun v ->
            if Xmlest.Document.end_pos doc u < Xmlest.Document.start_pos doc v
            then incr total)
          (Xmlest.Document.nodes_with_tag doc t2))
      (Xmlest.Document.nodes_with_tag doc t1);
    !total
  in
  List.iter
    (fun (t1, t2) ->
      check Alcotest.int
        (Printf.sprintf "%s before %s" t1 t2)
        (brute t1 t2)
        (Xmlest.Structural_join.count_following doc
           (Xmlest.Document.nodes_with_tag doc t1)
           (Xmlest.Document.nodes_with_tag doc t2)))
    [ ("faculty", "TA"); ("TA", "RA"); ("RA", "RA"); ("department", "TA") ]

let prop_following_fine_grid_exact =
  QCheck.Test.make ~count:150 ~name:"following fine-grid exactness"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:40 ())
    (fun (_, doc, t1, t2) ->
      let g =
        Xmlest.Grid.create
          ~size:(Xmlest.Document.max_pos doc + 1)
          ~max_pos:(Xmlest.Document.max_pos doc)
      in
      let before = Xmlest.Position_histogram.build doc ~grid:g (tagp t1) in
      let after = Xmlest.Position_histogram.build doc ~grid:g (tagp t2) in
      let est = Xmlest.Order_join.estimate ~before ~after () in
      let real =
        Xmlest.Structural_join.count_following doc
          (Xmlest.Document.nodes_with_tag doc t1)
          (Xmlest.Document.nodes_with_tag doc t2)
      in
      Test_util.float_close est (float_of_int real))

let prop_following_bounded =
  QCheck.Test.make ~count:150 ~name:"following estimate bounded by product"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:60 ()) (int_range 1 12))
    (fun ((_, doc, t1, t2), size) ->
      let before = hist doc size (tagp t1) and after = hist doc size (tagp t2) in
      let est = Xmlest.Order_join.estimate ~before ~after () in
      est >= 0.0
      && est
         <= (Xmlest.Position_histogram.total before
            *. Xmlest.Position_histogram.total after)
            +. 1e-6)

(* --- No-overlap estimation -------------------------------------------------- *)

let test_no_overlap_fig1 () =
  (* Sec. 4.2's example: faculty-TA with coverage gives ~1.9 vs real 2 in
     the paper; with our numbering it must land within [1, 3] and beat the
     primitive estimate's distance to the truth. *)
  let doc = Test_util.fig1_doc () in
  let g = grid_of doc 2 in
  let cvg = Xmlest.Coverage_histogram.build doc ~grid:g (tagp "faculty") in
  let desc = Xmlest.Position_histogram.build doc ~grid:g (tagp "TA") in
  let est = Xmlest.No_overlap.estimate ~desc ~coverage:cvg in
  Alcotest.(check bool) "within [1,3]" true (est >= 1.0 && est <= 3.0)

let prop_no_overlap_upper_bound =
  QCheck.Test.make ~count:150
    ~name:"no-overlap estimate <= descendant count"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:60 ()) (int_range 1 10))
    (fun ((_, doc, t1, t2), size) ->
      let g = grid_of doc size in
      let cvg = Xmlest.Coverage_histogram.build doc ~grid:g (tagp t1) in
      let desc = Xmlest.Position_histogram.build doc ~grid:g (tagp t2) in
      Xmlest.No_overlap.estimate ~desc ~coverage:cvg
      <= Xmlest.Position_histogram.total desc +. 1e-6)

let prop_no_overlap_fine_grid_exact =
  (* With one position per bucket and a genuinely no-overlap ancestor
     predicate, coverage fractions are 0/1 and the estimate is exact. *)
  QCheck.Test.make ~count:150 ~name:"no-overlap fine-grid exactness"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:40 ())
    (fun (_, doc, t1, t2) ->
      QCheck.assume (t1 <> t2);
      let nodes1 = Xmlest.Document.nodes_with_tag doc t1 in
      QCheck.assume (not (Xmlest.Interval_ops.has_nesting doc nodes1));
      let g =
        Xmlest.Grid.create
          ~size:(Xmlest.Document.max_pos doc + 1)
          ~max_pos:(Xmlest.Document.max_pos doc)
      in
      let cvg = Xmlest.Coverage_histogram.build doc ~grid:g (tagp t1) in
      let desc = Xmlest.Position_histogram.build doc ~grid:g (tagp t2) in
      Test_util.float_close
        (Xmlest.No_overlap.estimate ~desc ~coverage:cvg)
        (float_of_int (exact doc t1 t2)))

(* The sparse coverage join takes cells of one grid and a coverage
   histogram of another only if the two are compatible. *)
let test_cover_weights_checks_grids () =
  let doc = Test_util.fig1_doc () in
  let coverage =
    Xmlest.Coverage_histogram.build doc ~grid:(grid_of doc 4) (tagp "faculty")
  in
  Alcotest.check_raises "incompatible grids"
    (Invalid_argument "No_overlap.cover_weights: incompatible grids") (fun () ->
      ignore
        (Xmlest.No_overlap.cover_weights ~grid:(grid_of doc 3) ~coverage ([||], [||]) [||]))

let test_participation_saturation () =
  let open Xmlest.No_overlap in
  check (Alcotest.float 1e-9) "no ancestors" 0.0
    (participation_saturation ~n:0.0 ~m:5.0);
  check (Alcotest.float 1e-9) "no descendants" 0.0
    (participation_saturation ~n:5.0 ~m:0.0);
  check (Alcotest.float 1e-9) "single ancestor" 1.0
    (participation_saturation ~n:1.0 ~m:3.0);
  let p = participation_saturation ~n:10.0 ~m:5.0 in
  Alcotest.(check bool) "bounded by n" true (p <= 10.0);
  Alcotest.(check bool) "bounded by m" true (p <= 5.0 +. 1e-9);
  Alcotest.(check bool) "positive" true (p > 0.0);
  (* many descendants saturate all ancestors *)
  let sat = participation_saturation ~n:10.0 ~m:10_000.0 in
  Alcotest.(check bool) "saturates to n" true (sat > 9.9)

(* --- Compound predicates ----------------------------------------------------- *)

let test_compound_or_disjoint () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.02) in
  let g = grid_of doc 10 in
  let population = Test_util.population doc ~grid:g in
  let base p = Some (Xmlest.Position_histogram.build doc ~grid:g p) in
  let decade d =
    Xmlest.Predicate.any_of
      (List.init 10 (fun k ->
           Xmlest.Predicate.text_eq ~tag:"year" (string_of_int (d + k))))
  in
  let estimated =
    Xmlest.Compound.estimate ~disjoint_or:true ~population ~base (decade 1980)
  in
  let exact_count = float_of_int (Test_util.pred_count doc (decade 1980)) in
  (* With disjoint_or the sum of disjoint leaves is exact. *)
  check (Alcotest.float 0.5) "disjoint or exact" exact_count
    (Xmlest.Position_histogram.total estimated)

let test_compound_not () =
  let doc = Test_util.fig1_doc () in
  let g = grid_of doc 4 in
  let population = Test_util.population doc ~grid:g in
  let base p =
    match p with
    | Xmlest.Predicate.Not _ -> None
    | p -> Some (Xmlest.Position_histogram.build doc ~grid:g p)
  in
  let not_ra =
    Xmlest.Compound.estimate ~population ~base (Xmlest.Predicate.Not (tagp "RA"))
  in
  check (Alcotest.float 1e-6) "complement count"
    (float_of_int (Xmlest.Document.size doc - 10))
    (Xmlest.Position_histogram.total not_ra)

let test_compound_and_independence () =
  (* A ∧ A estimated under independence gives Σ aᵢ²/popᵢ, which must be
     <= count(A) and > 0 for a non-trivial A. *)
  let doc = Test_util.fig1_doc () in
  let g = grid_of doc 4 in
  let population = Test_util.population doc ~grid:g in
  let base p =
    match p with
    | Xmlest.Predicate.And _ -> None
    | p -> Some (Xmlest.Position_histogram.build doc ~grid:g p)
  in
  let a_and_a =
    Xmlest.Compound.estimate ~population ~base
      (Xmlest.Predicate.And (tagp "RA", tagp "RA"))
  in
  let total = Xmlest.Position_histogram.total a_and_a in
  Alcotest.(check bool) "0 < est <= 10" true (total > 0.0 && total <= 10.0 +. 1e-9)

let test_compound_true_is_population () =
  let doc = Test_util.fig1_doc () in
  let g = grid_of doc 4 in
  let population = Test_util.population doc ~grid:g in
  let base p =
    match p with
    | Xmlest.Predicate.True -> None
    | p -> Some (Xmlest.Position_histogram.build doc ~grid:g p)
  in
  let t = Xmlest.Compound.estimate ~population ~base Xmlest.Predicate.True in
  check (Alcotest.float 1e-9) "TRUE = population"
    (Xmlest.Position_histogram.total population)
    (Xmlest.Position_histogram.total t)

(* --- Baselines ---------------------------------------------------------------- *)

let test_baselines () =
  check (Alcotest.float 1e-9) "naive" 15.0
    (Xmlest.Baselines.naive ~anc_count:3 ~desc_count:5);
  check (Alcotest.float 1e-9) "upper bound" 5.0
    (Xmlest.Baselines.descendant_upper_bound ~desc_count:5)

(* --- Twig estimator ------------------------------------------------------------ *)

let catalog doc size preds =
  let size = min size (Xmlest.Document.max_pos doc + 1) in
  Xmlest.Summary.catalog (Xmlest.Summary.build ~grid_size:size doc preds)

let test_twig_single_node_estimate () =
  let doc = Test_util.fig1_doc () in
  let c = catalog doc 4 [ tagp "TA" ] in
  check (Alcotest.float 1e-9) "single node = count" 5.0
    (Xmlest.Twig_estimator.estimate c (Xmlest.Pattern.node (tagp "TA")))

let test_twig_pair_equals_pairwise_overlap () =
  (* With no-overlap disabled, the 2-node twig estimate must equal the raw
     pH-join estimate. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let c = catalog doc 10 [ tagp "manager"; tagp "department" ] in
  let options =
    { Xmlest.Twig_estimator.default_options with use_no_overlap = false }
  in
  let via_twig =
    Xmlest.Twig_estimator.estimate ~options c (Xmlest.Pattern.twig (tagp "manager") [ tagp "department" ])
  in
  let anc = hist doc 10 (tagp "manager") and desc = hist doc 10 (tagp "department") in
  check (Alcotest.float 1e-6) "twig = pH-join" (Xmlest.Ph_join.estimate ~anc ~desc ())
    via_twig

let test_twig_pair_equals_pairwise_no_overlap () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let c = catalog doc 10 [ tagp "employee"; tagp "name" ] in
  let via_twig =
    Xmlest.Twig_estimator.estimate c (Xmlest.Pattern.twig (tagp "employee") [ tagp "name" ])
  in
  let g = grid_of doc 10 in
  let cvg = Xmlest.Coverage_histogram.build doc ~grid:g (tagp "employee") in
  let desc = Xmlest.Position_histogram.build doc ~grid:g (tagp "name") in
  check (Alcotest.float 1e-6) "twig = coverage estimate"
    (Xmlest.No_overlap.estimate ~desc ~coverage:cvg)
    via_twig

let test_twig_branching_estimate_reasonable () =
  (* Fig. 2's query on Fig. 1's document: faculty[TA][RA], real answer 4.
     The estimate must be positive and well below the naive 3×5×10 = 150. *)
  let doc = Test_util.fig1_doc () in
  let c = catalog doc 4 [ tagp "faculty"; tagp "TA"; tagp "RA" ] in
  let pat = Xmlest.Pattern.twig (tagp "faculty") [ tagp "TA"; tagp "RA" ] in
  let est = Xmlest.Twig_estimator.estimate c pat in
  Alcotest.(check bool) "positive" true (est > 0.0);
  Alcotest.(check bool) "below naive" true (est < 50.0)

let test_twig_chain_estimate () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let preds = [ tagp "manager"; tagp "department"; tagp "employee" ] in
  let c = catalog doc 10 preds in
  let pat = Test_util.chain preds in
  let est = Xmlest.Twig_estimator.estimate c pat in
  let real =
    float_of_int (Xmlest.Twig_count.count doc (Test_util.chain preds))
  in
  Alcotest.(check bool) "positive" true (est > 0.0);
  Alcotest.(check bool) "within 5x of real" true
    (est < 5.0 *. real && est > real /. 5.0)

let prop_twig_estimate_nonnegative =
  QCheck.Test.make ~count:100 ~name:"twig estimates are non-negative and finite"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ()) (int_range 2 8))
    (fun ((_, doc, t1, t2), size) ->
      let c = catalog doc size [ tagp t1; tagp t2 ] in
      let pat = Xmlest.Pattern.twig (tagp t1) [ tagp t2 ] in
      let est = Xmlest.Twig_estimator.estimate c pat in
      Float.is_finite est && est >= 0.0)

let prop_twig_estimate_accuracy_on_dblp_style =
  (* On flat catalog-like data the pairwise no-overlap estimate should be
     close to the truth (the paper's headline result).  Checked on scaled
     DBLP samples with different seeds. *)
  QCheck.Test.make ~count:8 ~name:"no-overlap accuracy on DBLP-style data"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let doc =
        Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled ~seed 0.02)
      in
      let c = catalog doc 10 [ tagp "article"; tagp "author" ] in
      let est =
        Xmlest.Twig_estimator.estimate c (Xmlest.Pattern.twig (tagp "article") [ tagp "author" ])
      in
      let real = float_of_int (exact doc "article" "author") in
      est > 0.5 *. real && est < 1.5 *. real)

let test_level_correction_helps_child_queries () =
  (* Extension: //department/email on the staff data.  The corrected
     estimate must not be further from the child-axis truth than the
     uncorrected one. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let c = catalog doc 10 [ tagp "department"; tagp "email" ] in
  let pat =
    Xmlest.Pattern.node
      ~edges:[ (Xmlest.Pattern.Child, Xmlest.Pattern.node (tagp "email")) ]
      (tagp "department")
  in
  let plain = Xmlest.Twig_estimator.estimate c pat in
  let corrected =
    Xmlest.Twig_estimator.estimate
      ~options:{ Xmlest.Twig_estimator.default_options with child_mode = Xmlest.Twig_estimator.Level_scaled }
      c pat
  in
  let real = float_of_int (Xmlest.Twig_count.count doc pat) in
  Alcotest.(check bool) "correction not worse" true
    (Float.abs (corrected -. real) <= Float.abs (plain -. real) +. 1e-6)

let test_descendant_direction_composition () =
  (* With the descendant-based direction, a 2-node twig must equal the raw
     descendant-based pH-join, and longer chains stay finite and keyed
     correctly. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let preds = [ tagp "manager"; tagp "department"; tagp "employee" ] in
  let c = catalog doc 10 preds in
  let options =
    { Xmlest.Twig_estimator.default_options with
      direction = Xmlest.Ph_join.Descendant_based;
      use_no_overlap = false;
    }
  in
  let pair =
    Xmlest.Twig_estimator.estimate ~options c
      (Xmlest.Pattern.twig (tagp "manager") [ tagp "department" ])
  in
  let anc = hist doc 10 (tagp "manager") and desc = hist doc 10 (tagp "department") in
  check (Alcotest.float 1e-6) "pair = raw desc-based"
    (Xmlest.Ph_join.estimate ~direction:Xmlest.Ph_join.Descendant_based ~anc
       ~desc ())
    pair;
  let chain =
    Xmlest.Twig_estimator.estimate ~options c (Test_util.chain preds)
  in
  let real = float_of_int (Xmlest.Twig_count.count doc (Test_util.chain preds)) in
  Alcotest.(check bool) "chain sane" true
    (Float.is_finite chain && chain > real /. 10.0 && chain < real *. 10.0)

let test_star_pattern_estimate () =
  (* '*' nodes use the TRUE (population) histogram. *)
  let doc = Test_util.fig1_doc () in
  let c = catalog doc 4 [ tagp "RA" ] in
  let pat =
    Xmlest.Pattern.node
      ~edges:[ (Xmlest.Pattern.Descendant, Xmlest.Pattern.node (tagp "RA")) ]
      Xmlest.Predicate.True
  in
  let est = Xmlest.Twig_estimator.estimate c pat in
  (* every RA has at least one ancestor; estimate must be positive, finite
     and below nodes × RAs *)
  Alcotest.(check bool) "positive finite" true (Float.is_finite est && est > 0.0);
  Alcotest.(check bool) "below naive" true (est <= 31.0 *. 10.0)

let test_estimate_trace () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let c =
    catalog doc 10 [ tagp "manager"; tagp "department"; tagp "employee" ]
  in
  let pattern =
    Test_util.chain [ tagp "manager"; tagp "department"; tagp "employee" ]
  in
  let total, steps = Xmlest.Twig_estimator.estimate_trace c pattern in
  check Alcotest.int "two join steps" 2 (List.length steps);
  (match List.rev steps with
  | last :: _ ->
    check (Alcotest.float 1e-9) "last step = total" total
      last.Xmlest.Twig_estimator.estimate;
    Alcotest.(check bool) "method recorded" true
      (last.Xmlest.Twig_estimator.method_used <> "")
  | [] -> Alcotest.fail "no steps");
  check (Alcotest.float 1e-9) "trace total = estimate"
    (Xmlest.Twig_estimator.estimate c pattern)
    total

(* --- Sparse views = dense oracle --------------------------------------------- *)

(* The five option sets every comparison runs under. *)
let oracle_options =
  let d = Xmlest.Twig_estimator.default_options in
  [
    d;
    { d with direction = Xmlest.Ph_join.Descendant_based };
    { d with child_mode = Xmlest.Twig_estimator.Level_scaled };
    { d with child_mode = Xmlest.Twig_estimator.Cell_level_scaled };
    { d with use_no_overlap = false };
  ]

(* Base predicates of the oracle summaries: the tag pool plus level tests,
   which never nest and so always take the coverage path. *)
let oracle_base =
  List.map tagp (Array.to_list Test_util.tag_pool)
  @ List.init 4 (fun l -> Xmlest.Predicate.Level_eq l)

(* Node predicates mix tags, level tests and compound predicates that the
   summary's catalog resolves from its base histograms. *)
let oracle_pred st =
  let tag () =
    tagp Test_util.tag_pool.(Random.State.int st (Array.length Test_util.tag_pool))
  in
  match Random.State.int st 8 with
  | 0 -> Xmlest.Predicate.Level_eq (Random.State.int st 4)
  | 1 -> Xmlest.Predicate.And (tag (), tag ())
  | 2 -> Xmlest.Predicate.Or (tag (), tag ())
  | 3 -> Xmlest.Predicate.Not (tag ())
  | _ -> tag ()

let rec oracle_pattern st depth =
  let edge () =
    let axis =
      if Random.State.bool st then Xmlest.Pattern.Descendant else Xmlest.Pattern.Child
    in
    (axis, oracle_pattern st (depth + 1))
  in
  let edges = if depth >= 2 then [] else List.init (Random.State.int st 3) (fun _ -> edge ()) in
  Xmlest.Pattern.node ~edges (oracle_pred st)

let same_step (a : Xmlest.Twig_estimator.step) (b : Xmlest.Twig_estimator.step) =
  String.equal a.subtwig b.subtwig
  && String.equal a.method_used b.method_used
  && same_bits a.estimate b.estimate

(* Estimate and trace of every pattern under every option set agree with
   the dense oracle bit for bit; returns the number of coverage steps. *)
let agrees_with_dense_oracle cat patterns =
  List.fold_left
    (fun coverage options ->
      List.fold_left
        (fun coverage p ->
          let total, steps = Xmlest.Twig_estimator.estimate_trace ~options cat p in
          let total', steps' = Dense_twig_estimator.estimate_trace ~options cat p in
          if
            not
              (same_bits (Xmlest.Twig_estimator.estimate ~options cat p)
                 (Dense_twig_estimator.estimate ~options cat p)
              && same_bits total total'
              && List.equal same_step steps steps')
          then
            QCheck.Test.fail_reportf "%s: sparse %h, dense %h"
              (Xmlest.Pattern.to_string p) total total';
          coverage
          + List.length
              (List.filter
                 (fun (s : Xmlest.Twig_estimator.step) ->
                   String.equal s.method_used "coverage")
                 steps))
        coverage patterns)
    0 oracle_options

(* A catalog that serves no memoized coefficients, so every join takes
   the fresh dense coefficient pass. *)
let uncached cat =
  { cat with
    Xmlest.Twig_estimator.desc_coefs = (fun _ -> None);
    anc_coefs = (fun _ -> None) }

let oracle_case_gen st =
  let e = Test_util.elem_gen ~max_nodes:60 () st in
  let size =
    match Random.State.int st 4 with 0 -> 1 | 1 -> 2 | _ -> 3 + Random.State.int st 10
  in
  let kind = if Random.State.bool st then `Uniform else `Equidepth in
  (e, size, kind, Random.State.bool st, List.init 6 (fun _ -> oracle_pattern st 0))

let oracle_case_print (e, size, kind, cached, patterns) =
  Format.asprintf "g=%d %s%s [%s] in %a" size
    (match kind with `Uniform -> "uniform" | `Equidepth -> "equidepth")
    (if cached then "" else " uncached")
    (String.concat "; " (List.map Xmlest.Pattern.to_string patterns))
    Test_util.pp_elem e

let prop_sparse_views_equal_dense_oracle =
  QCheck.Test.make ~count:150 ~name:"sparse views = dense oracle, bit for bit"
    (QCheck.make ~print:oracle_case_print oracle_case_gen)
    (fun (e, size, grid_kind, cached, patterns) ->
      let doc = Xmlest.Document.of_elem e in
      let grid_size = min size (Xmlest.Document.max_pos doc + 1) in
      let cat =
        Xmlest.Summary.catalog
          (Xmlest.Summary.build ~grid_size ~grid_kind doc oracle_base)
      in
      ignore
        (agrees_with_dense_oracle (if cached then cat else uncached cat) patterns);
      true)

let test_sparse_views_on_staff_and_dblp () =
  let parse = Xmlest.Pattern_parser.pattern_exn in
  let run doc preds queries =
    List.iter
      (fun (grid_size, grid_kind) ->
        let cat =
          Xmlest.Summary.catalog (Xmlest.Summary.build ~grid_size ~grid_kind doc preds)
        in
        let patterns = List.map parse queries in
        let coverage =
          agrees_with_dense_oracle cat patterns
          + agrees_with_dense_oracle (uncached cat) patterns
        in
        Alcotest.(check bool) "coverage joins compared" true (coverage > 0))
      [ (1, `Uniform); (2, `Equidepth); (10, `Uniform); (10, `Equidepth) ]
  in
  run
    (Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()))
    [ tagp "manager"; tagp "department"; tagp "employee"; tagp "email"; tagp "name" ]
    [ "//manager//department//employee"; "//manager[.//email]//employee/name";
      "//department[./email]//employee[.//name]"; "//employee//name" ];
  run
    (Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.02))
    [ tagp "article"; tagp "author"; tagp "title"; tagp "year" ]
    [ "//article[./author][./year]//title"; "//article//author"; "//*//author" ]

(* The catalog with a twin of every coverage entry, same cells, of the
   negated fraction, and one of fraction 0: entries no build makes, which
   a coverage join skips. *)
let with_nonpositive_entries cat =
  let memo = Hashtbl.create 8 in
  let twin cvg =
    let entries =
      Xmlest.Coverage_histogram.fold_entries cvg ~init:[]
        ~f:(fun acc ~covered ~covering f ->
          (covered, covering, f) :: (covered, covering, -.f) :: (covered, covering, 0.0)
          :: acc)
    in
    Xmlest.Coverage_histogram.of_parts ~grid:(Xmlest.Coverage_histogram.grid cvg)
      ~populations:(Xmlest.Coverage_histogram.populations cvg) ~entries
  in
  let coverage p =
    let key = Xmlest.Predicate.name p in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
      let c = Option.map twin (cat.Xmlest.Twig_estimator.coverage p) in
      Hashtbl.add memo key c;
      c
  in
  { cat with Xmlest.Twig_estimator.coverage }

(* Treebank-shaped data at the benchmark's grid of 50 buckets: the tags
   nest, so pH-joins compose the children that [FILE] and the level
   predicates then join by coverage; and a coverage join after another
   finds covering cells the first one left without participation. *)
let test_sparse_views_on_treebank () =
  let open Xmlest.Pattern in
  let doc = Xmlest.Document.of_elem (Xmlest.Treebank_gen.generate ~sentences:60 ()) in
  let level l = Xmlest.Predicate.Level_eq l in
  let preds =
    List.map tagp [ "FILE"; "S"; "NP"; "VP"; "PP"; "DT"; "NN"; "IN" ]
    @ List.init 4 (fun l -> level (l + 1))
  in
  let n ?(e = []) p = node ~edges:e p in
  let d p = (Descendant, p) and c p = (Child, p) in
  let patterns =
    [
      n (level 2) ~e:[ d (n (tagp "NP")); d (n (tagp "VP")) ];
      n (level 2) ~e:[ d (n (tagp "NP")); c (n (tagp "PP")); d (n (tagp "IN")) ];
      n (level 1) ~e:[ d (n (tagp "NP") ~e:[ d (n (tagp "DT")) ]) ];
      n (level 1)
        ~e:[ d (n (tagp "S") ~e:[ d (n (tagp "NP")) ]); d (n (tagp "VP") ~e:[ d (n (tagp "NN")) ]) ];
      n (level 3) ~e:[ d (n (tagp "NN")); d (n (tagp "DT")) ];
      n (level 2) ~e:[ d (n (level 3) ~e:[ d (n (tagp "NN")) ]); d (n (tagp "IN")) ];
      n (tagp "FILE") ~e:[ d (n (tagp "S") ~e:[ d (n (tagp "NP")) ]); d (n (tagp "VP")) ];
      n (tagp "S") ~e:[ d (n (tagp "NP")); c (n (tagp "VP") ~e:[ d (n (tagp "PP")) ]) ];
      n (tagp "NP") ~e:[ d (n (level 4)); d (n (tagp "NN")) ];
    ]
  in
  List.iter
    (fun grid_kind ->
      Dense_twig_estimator.outside_pairs := 0;
      Dense_twig_estimator.composed_children := 0;
      let cat =
        Xmlest.Summary.catalog (Xmlest.Summary.build ~grid_size:50 ~grid_kind doc preds)
      in
      let coverage =
        agrees_with_dense_oracle cat patterns
        + agrees_with_dense_oracle (uncached cat) patterns
        + agrees_with_dense_oracle (with_nonpositive_entries cat) patterns
      in
      Alcotest.(check bool) "coverage joins compared" true (coverage > 0);
      Alcotest.(check bool) "covering cells outside the ancestor view" true
        (!Dense_twig_estimator.outside_pairs > 0);
      Alcotest.(check bool) "composed children joined by coverage" true
        (!Dense_twig_estimator.composed_children > 0))
    [ `Uniform; `Equidepth ]

let () =
  Alcotest.run "estimate"
    [
      ( "ph_join",
        [
          Alcotest.test_case "paper example magnitude" `Quick test_ph_join_paper_example;
          Alcotest.test_case "empty inputs" `Quick test_ph_join_empty;
          Alcotest.test_case "incompatible grids" `Quick test_ph_join_incompatible_grids;
          Alcotest.test_case "single-bucket degenerate" `Quick
            test_ph_join_single_bucket_degenerate;
          Alcotest.test_case "cells sum to total" `Quick test_ph_join_estimate_cells_total;
          Alcotest.test_case "precomputed coefficients" `Quick test_coefficients_match_join;
          qcheck prop_fine_grid_anc;
          qcheck prop_fine_grid_desc;
          qcheck prop_ph_join_nonnegative;
          qcheck prop_ph_join_below_naive;
          qcheck prop_cell_pair_weights_sum_to_estimate;
          qcheck prop_cached_equals_dense;
          qcheck prop_coefficients_bit_exact;
          Alcotest.test_case "estimate_with validates array length" `Quick
            test_estimate_with_checks_length;
        ] );
      ( "order_join",
        [
          Alcotest.test_case "fig1 magnitude" `Quick test_following_fig1;
          Alcotest.test_case "exact counter vs brute force" `Quick
            test_count_following_brute;
          qcheck prop_following_fine_grid_exact;
          qcheck prop_following_bounded;
        ] );
      ( "child_join",
        [
          Alcotest.test_case "level-position totals" `Quick test_lph_totals_match_hist;
          Alcotest.test_case "improves on staff data" `Quick test_child_join_staff;
          qcheck prop_child_join_fine_grid_exact;
          qcheck prop_child_join_bounded_by_ph_join;
        ] );
      ( "no_overlap",
        [
          Alcotest.test_case "fig1 faculty-TA" `Quick test_no_overlap_fig1;
          Alcotest.test_case "participation saturation" `Quick
            test_participation_saturation;
          Alcotest.test_case "cover_weights checks grids" `Quick
            test_cover_weights_checks_grids;
          qcheck prop_no_overlap_upper_bound;
          qcheck prop_no_overlap_fine_grid_exact;
        ] );
      ( "compound",
        [
          Alcotest.test_case "disjoint or (decades)" `Quick test_compound_or_disjoint;
          Alcotest.test_case "not" `Quick test_compound_not;
          Alcotest.test_case "and under independence" `Quick
            test_compound_and_independence;
          Alcotest.test_case "true = population" `Quick test_compound_true_is_population;
        ] );
      ("baselines", [ Alcotest.test_case "formulas" `Quick test_baselines ]);
      ( "twig",
        [
          Alcotest.test_case "single node" `Quick test_twig_single_node_estimate;
          Alcotest.test_case "pair = pH-join (overlap)" `Quick
            test_twig_pair_equals_pairwise_overlap;
          Alcotest.test_case "pair = coverage (no-overlap)" `Quick
            test_twig_pair_equals_pairwise_no_overlap;
          Alcotest.test_case "branching twig (Fig. 2)" `Quick
            test_twig_branching_estimate_reasonable;
          Alcotest.test_case "3-node chain" `Quick test_twig_chain_estimate;
          Alcotest.test_case "level correction (extension)" `Quick
            test_level_correction_helps_child_queries;
          Alcotest.test_case "estimate trace" `Quick test_estimate_trace;
          Alcotest.test_case "star pattern" `Quick test_star_pattern_estimate;
          Alcotest.test_case "descendant-based composition" `Quick
            test_descendant_direction_composition;
          qcheck prop_twig_estimate_nonnegative;
          qcheck prop_twig_estimate_accuracy_on_dblp_style;
          qcheck prop_sparse_views_equal_dense_oracle;
          Alcotest.test_case "sparse views = dense oracle on staff and DBLP" `Quick
            test_sparse_views_on_staff_and_dblp;
          Alcotest.test_case "sparse views = dense oracle on Treebank, g = 50" `Quick
            test_sparse_views_on_treebank;
        ] );
    ]
