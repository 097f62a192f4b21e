(* Tests for the histogram layer: grid geometry, position histograms
   (Lemma 1, Theorem 1, storage), coverage histograms (Theorem 2), level
   histograms. *)

open Xmlest_core
open Xmlest_test_util

let check = Alcotest.check
let qcheck = Test_util.to_alcotest (* seeded: see test_util.ml *)

(* Clamp to the position count so random (doc, size) draws stay legal. *)
let grid_of doc size =
  let max_pos = Xmlest.Document.max_pos doc in
  Xmlest.Grid.create ~size:(min size (max_pos + 1)) ~max_pos

(* --- Grid ----------------------------------------------------------------- *)

let test_grid_geometry () =
  let g = Xmlest.Grid.create ~size:10 ~max_pos:99 in
  check Alcotest.int "cells" 100 (Xmlest.Grid.cells g);
  check Alcotest.int "bucket 0" 0 (Xmlest.Grid.bucket g 0);
  check Alcotest.int "bucket 9" 0 (Xmlest.Grid.bucket g 9);
  check Alcotest.int "bucket 10" 1 (Xmlest.Grid.bucket g 10);
  check Alcotest.int "bucket max" 9 (Xmlest.Grid.bucket g 99)

let test_grid_covers_max_pos () =
  (* Every position up to max_pos must land in a bucket < size, for
     ragged divisions too. *)
  List.iter
    (fun (size, max_pos) ->
      let g = Xmlest.Grid.create ~size ~max_pos in
      for p = 0 to max_pos do
        let b = Xmlest.Grid.bucket g p in
        if b < 0 || b >= size then
          Alcotest.failf "bucket %d out of range for pos %d (g=%d,max=%d)" b p
            size max_pos
      done)
    [ (10, 99); (10, 100); (7, 23); (3, 2); (1, 50); (50, 49) ]

let test_grid_bad_args () =
  Alcotest.check_raises "zero size"
    (Invalid_argument "Grid.create: size must be positive") (fun () ->
      ignore (Xmlest.Grid.create ~size:0 ~max_pos:10));
  Alcotest.check_raises "more buckets than positions"
    (Invalid_argument "Grid.create: size 12 exceeds the 11 available positions")
    (fun () -> ignore (Xmlest.Grid.create ~size:12 ~max_pos:10));
  let g = Xmlest.Grid.create ~size:10 ~max_pos:99 in
  Alcotest.check_raises "position out of range"
    (Invalid_argument "Grid.bucket: position 100 outside [0, 99]") (fun () ->
      ignore (Xmlest.Grid.bucket g 100))

let test_grid_compatible () =
  let a = Xmlest.Grid.create ~size:10 ~max_pos:99 in
  Alcotest.(check bool) "compatible with itself" true (Xmlest.Grid.compatible a a);
  (* Same size and width but different max_pos: the last bucket covers
     different position ranges, so the grids must NOT be compatible
     (regression: max_pos used to be ignored for uniform pairs). *)
  let b = Xmlest.Grid.create ~size:10 ~max_pos:95 in
  Alcotest.(check bool) "different max_pos" false (Xmlest.Grid.compatible a b);
  let c = Xmlest.Grid.create ~size:5 ~max_pos:99 in
  Alcotest.(check bool) "different size" false (Xmlest.Grid.compatible a c);
  (* Uniform vs boundary-listed spelling of the same bucketization. *)
  let d = Xmlest.Grid.of_boundaries (Array.init 11 (fun i -> i * 10)) in
  Alcotest.(check bool) "same bucketization, different representation" true
    (Xmlest.Grid.compatible a d);
  let e = Xmlest.Grid.of_boundaries [| 0; 7; 100 |] in
  let f = Xmlest.Grid.of_boundaries [| 0; 8; 100 |] in
  Alcotest.(check bool) "different boundaries" false (Xmlest.Grid.compatible e f)

let test_equidepth_unsorted () =
  (* The positions array need not be sorted: boundaries must match the
     sorted spelling, and the argument must not be modified. *)
  let sorted = Array.init 200 (fun k -> (k * k) mod 1009) in
  Array.sort compare sorted;
  let shuffled = Array.copy sorted in
  let rng = Xmlest.Splitmix.create 42 in
  for k = Array.length shuffled - 1 downto 1 do
    let r = Xmlest.Splitmix.int rng (k + 1) in
    let tmp = shuffled.(k) in
    shuffled.(k) <- shuffled.(r);
    shuffled.(r) <- tmp
  done;
  let before = Array.copy shuffled in
  let gs = Xmlest.Grid.equidepth ~size:8 ~max_pos:1008 ~positions:sorted in
  let gu = Xmlest.Grid.equidepth ~size:8 ~max_pos:1008 ~positions:shuffled in
  Alcotest.(check (array int)) "same boundaries as when pre-sorted"
    gs.Xmlest.Grid.boundaries gu.Xmlest.Grid.boundaries;
  Alcotest.(check (array int)) "argument not modified" before shuffled

let test_equidepth_boundaries () =
  let positions = Array.init 100 (fun k -> k * k) in
  (* skewed population: quantile boundaries should crowd toward 0 *)
  let g = Xmlest.Grid.equidepth ~size:10 ~max_pos:9801 ~positions in
  check Alcotest.int "size" 10 g.Xmlest.Grid.size;
  let b = g.Xmlest.Grid.boundaries in
  check Alcotest.int "first boundary" 0 b.(0);
  check Alcotest.int "last boundary" 9802 b.(10);
  for i = 0 to 9 do
    Alcotest.(check bool) "strictly increasing" true (b.(i) < b.(i + 1))
  done;
  (* first bucket is much narrower than the last for this population *)
  Alcotest.(check bool) "skew respected" true (b.(1) - b.(0) < b.(10) - b.(9))

let test_equidepth_balances_population () =
  let positions = Array.init 1000 (fun k -> k * 7) in
  let g = Xmlest.Grid.equidepth ~size:10 ~max_pos:6993 ~positions in
  let counts = Array.make 10 0 in
  Array.iter
    (fun p ->
      let b = Xmlest.Grid.bucket g p in
      counts.(b) <- counts.(b) + 1)
    positions;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "each bucket within 2x of fair share" true
        (c >= 50 && c <= 200))
    counts

let test_equidepth_degenerate () =
  (* fewer distinct positions than buckets: must still produce a valid
     strictly-increasing grid covering the space *)
  let g = Xmlest.Grid.equidepth ~size:8 ~max_pos:20 ~positions:[| 3; 3; 3 |] in
  for p = 0 to 20 do
    let b = Xmlest.Grid.bucket g p in
    Alcotest.(check bool) "bucket in range" true (b >= 0 && b < 8)
  done;
  let empty = Xmlest.Grid.equidepth ~size:4 ~max_pos:10 ~positions:[||] in
  check Alcotest.int "empty population still works" 0 (Xmlest.Grid.bucket empty 0)

let prop_equidepth_bucket_consistent =
  QCheck.Test.make ~count:200 ~name:"equidepth bucket matches boundaries"
    QCheck.(pair (int_range 1 20) (int_range 0 500))
    (fun (size, seed) ->
      let rng = Xmlest.Splitmix.create seed in
      let max_pos = 50 + Xmlest.Splitmix.int rng 1000 in
      let n = 1 + Xmlest.Splitmix.int rng 200 in
      let positions =
        Array.init n (fun _ -> Xmlest.Splitmix.int rng (max_pos + 1))
      in
      Array.sort compare positions;
      let g = Xmlest.Grid.equidepth ~size ~max_pos ~positions in
      let ok = ref true in
      for p = 0 to max_pos do
        let b = Xmlest.Grid.bucket g p in
        let lo = g.Xmlest.Grid.boundaries.(b)
        and hi = g.Xmlest.Grid.boundaries.(b + 1) - 1 in
        if not (lo <= p && p <= hi) then ok := false
      done;
      !ok)

let test_histogram_on_equidepth_grid () =
  (* Totals and Lemma 1 are bucketization-independent. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let nodes = Xmlest.Document.nodes_with_tag doc "employee" in
  let positions =
    Array.concat
      [
        Array.map (Xmlest.Document.start_pos doc) nodes;
        Array.map (Xmlest.Document.end_pos doc) nodes;
      ]
  in
  Array.sort compare positions;
  let g =
    Xmlest.Grid.equidepth ~size:10 ~max_pos:(Xmlest.Document.max_pos doc) ~positions
  in
  let h = Xmlest.Position_histogram.build doc ~grid:g (Xmlest.Predicate.tag "employee") in
  check (Alcotest.float 1e-9) "total preserved"
    (float_of_int (Array.length nodes))
    (Xmlest.Position_histogram.total h);
  Alcotest.(check bool) "Lemma 1 holds" true (Test_util.obeys_lemma1 h)

(* --- Position histogram ---------------------------------------------------- *)

let build doc size pred =
  Xmlest.Position_histogram.build doc ~grid:(grid_of doc size) pred

let test_hist_totals () =
  let doc = Test_util.fig1_doc () in
  let h = build doc 4 (Xmlest.Predicate.tag "RA") in
  check (Alcotest.float 1e-9) "total = count" 10.0 (Xmlest.Position_histogram.total h);
  let all = Test_util.population doc ~grid:(grid_of doc 4) in
  check (Alcotest.float 1e-9) "population = size"
    (float_of_int (Xmlest.Document.size doc))
    (Xmlest.Position_histogram.total all)

let test_hist_upper_triangle () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let h = build doc 10 (Xmlest.Predicate.tag "name") in
  Xmlest.Position_histogram.iter_nonzero h (fun ~i ~j _ ->
      if i > j then Alcotest.failf "cell (%d,%d) below diagonal" i j)

let test_hist_paper_example () =
  (* Sec. 3.2's worked example: Fig. 1's document with 2×2 histograms
     (Fig. 7).  The exact bucket contents depend on the numbering scheme
     (the paper's positions differ slightly from ours); with our labeling,
     faculty lands 2 in cell (0,0) and 1 in (1,1) exactly as in Fig. 7,
     and the 5 TAs spread over (0,0), (0,1) and (1,1). *)
  let doc = Test_util.fig1_doc () in
  let g = grid_of doc 2 in
  let fac = Xmlest.Position_histogram.build doc ~grid:g (Xmlest.Predicate.tag "faculty") in
  let ta = Xmlest.Position_histogram.build doc ~grid:g (Xmlest.Predicate.tag "TA") in
  check (Alcotest.float 1e-9) "fac (0,0)" 2.0 (Xmlest.Position_histogram.get fac ~i:0 ~j:0);
  check (Alcotest.float 1e-9) "fac (1,1)" 1.0 (Xmlest.Position_histogram.get fac ~i:1 ~j:1);
  check (Alcotest.float 1e-9) "ta total" 5.0 (Xmlest.Position_histogram.total ta);
  check (Alcotest.float 1e-9) "ta (0,0)" 2.0 (Xmlest.Position_histogram.get ta ~i:0 ~j:0);
  check (Alcotest.float 1e-9) "ta (0,1)" 1.0 (Xmlest.Position_histogram.get ta ~i:0 ~j:1);
  check (Alcotest.float 1e-9) "ta (1,1)" 2.0 (Xmlest.Position_histogram.get ta ~i:1 ~j:1)

let prop_lemma1 =
  QCheck.Test.make ~count:150 ~name:"Lemma 1 holds on built histograms"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:80 ()) (int_range 2 12))
    (fun ((_, doc, t1, _), size) ->
      let h = build doc size (Xmlest.Predicate.tag t1) in
      Test_util.obeys_lemma1 h)

let test_lemma1_rejects_violation () =
  let doc = Test_util.fig1_doc () in
  let h = Xmlest.Position_histogram.create_empty (grid_of doc 6) in
  Xmlest.Position_histogram.add h ~i:1 ~j:4 1.0;
  Xmlest.Position_histogram.add h ~i:2 ~j:5 1.0;
  (* (2,5) straddles (1,4): 1 < 2 < 4 and 4 < 5 *)
  Alcotest.(check bool) "violation detected" false
    (Test_util.obeys_lemma1 h)

let test_theorem1_nonzero_growth () =
  (* Theorem 1: non-zero cells grow O(g), not O(g²).  Check the ratio
     non-zero/g stays bounded as g grows on a real data set. *)
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  let ratios =
    List.map
      (fun size ->
        let h = build doc size (Xmlest.Predicate.tag "author") in
        float_of_int (Xmlest.Position_histogram.nonzero_cells h) /. float_of_int size)
      [ 10; 20; 40; 80 ]
  in
  List.iter
    (fun r -> Alcotest.(check bool) "non-zero cells <= 4g" true (r <= 4.0))
    ratios

let test_hist_storage_accounting () =
  let doc = Test_util.fig1_doc () in
  let h = build doc 4 (Xmlest.Predicate.tag "RA") in
  check Alcotest.int "bytes = 6 × non-zero"
    (6 * Xmlest.Position_histogram.nonzero_cells h)
    (Xmlest.Position_histogram.storage_bytes h)

let test_hist_map2_scale () =
  let doc = Test_util.fig1_doc () in
  let a = build doc 4 (Xmlest.Predicate.tag "TA") in
  let b = build doc 4 (Xmlest.Predicate.tag "RA") in
  let sum = Xmlest.Position_histogram.map2 ( +. ) a b in
  check (Alcotest.float 1e-9) "sum total" 15.0 (Xmlest.Position_histogram.total sum);
  let doubled = Xmlest.Position_histogram.scale a 2.0 in
  check (Alcotest.float 1e-9) "scaled total" 10.0
    (Xmlest.Position_histogram.total doubled)

let test_hist_set_get () =
  let g = Xmlest.Grid.create ~size:5 ~max_pos:49 in
  let h = Xmlest.Position_histogram.create_empty g in
  Xmlest.Position_histogram.add h ~i:1 ~j:3 7.5;
  check (Alcotest.float 1e-9) "get" 7.5 (Xmlest.Position_histogram.get h ~i:1 ~j:3);
  check (Alcotest.float 1e-9) "total tracks add" 7.5 (Xmlest.Position_histogram.total h);
  Xmlest.Position_histogram.add h ~i:1 ~j:3 (-5.0);
  check (Alcotest.float 1e-9) "total after a negative add" 2.5
    (Xmlest.Position_histogram.total h)

let test_hist_rejects_below_diagonal () =
  let g = Xmlest.Grid.create ~size:5 ~max_pos:49 in
  let h = Xmlest.Position_histogram.create_empty g in
  Alcotest.check_raises "add below diagonal"
    (Invalid_argument
       "Position_histogram.add: cell (4,0) is below the diagonal (start \
        bucket must not exceed end bucket)") (fun () ->
      Xmlest.Position_histogram.add h ~i:4 ~j:0 1.0);
  Alcotest.check_raises "add outside grid"
    (Invalid_argument
       "Position_histogram.add: cell (0,5) outside the 5x5 grid") (fun () ->
      Xmlest.Position_histogram.add h ~i:0 ~j:5 1.0);
  (* rejected writes must leave the histogram untouched *)
  check (Alcotest.float 1e-9) "total unchanged" 0.0
    (Xmlest.Position_histogram.total h);
  check Alcotest.int "version unchanged" 0 (Xmlest.Position_histogram.version h)

let prop_total_equals_nonzero_sum =
  (* The triangle invariant at work: after any sequence of legal [add]
     mutations, [total] equals the sum [iter_nonzero] sees. *)
  QCheck.Test.make ~count:200 ~name:"total = sum of iter_nonzero after mutations"
    QCheck.(pair (int_range 2 10) (int_range 0 10_000))
    (fun (size, seed) ->
      let rng = Xmlest.Splitmix.create seed in
      let g = Xmlest.Grid.create ~size ~max_pos:((size * 10) - 1) in
      let h = Xmlest.Position_histogram.create_empty g in
      for _ = 1 to 50 do
        let i = Xmlest.Splitmix.int rng size in
        let j = i + Xmlest.Splitmix.int rng (size - i) in
        let v = float_of_int (Xmlest.Splitmix.int rng 21 - 10) in
        Xmlest.Position_histogram.add h ~i ~j v
      done;
      let sum = ref 0.0 in
      Xmlest.Position_histogram.iter_nonzero h (fun ~i:_ ~j:_ v -> sum := !sum +. v);
      Test_util.float_close ~tolerance:1e-9 !sum (Xmlest.Position_histogram.total h))

let test_hist_version_counter () =
  let g = Xmlest.Grid.create ~size:4 ~max_pos:39 in
  let h = Xmlest.Position_histogram.create_empty g in
  check Alcotest.int "fresh" 0 (Xmlest.Position_histogram.version h);
  Xmlest.Position_histogram.add h ~i:0 ~j:1 2.0;
  Xmlest.Position_histogram.add h ~i:1 ~j:3 1.0;
  check Alcotest.int "two mutations" 2 (Xmlest.Position_histogram.version h);
  check Alcotest.int "copy starts fresh" 0
    (Xmlest.Position_histogram.version (Xmlest.Position_histogram.copy h))

let test_heatmap_renders () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let h = build doc 10 (Xmlest.Predicate.tag "department") in
  let out = Format.asprintf "%a" Xmlest.Position_histogram.pp_heatmap h in
  let lines = String.split_on_char '\n' out in
  (* header + 10 rows (+ trailing empty) *)
  Alcotest.(check bool) "11+ lines" true (List.length lines >= 11);
  Alcotest.(check bool) "has dense marker" true (String.contains out '#')

let test_heatmap_zero_total () =
  (* A map2 difference can have total 0 (or negative) with non-zero cells;
     the heatmap must not emit NaN shares (regression). *)
  let g = Xmlest.Grid.create ~size:3 ~max_pos:29 in
  let a = Xmlest.Position_histogram.create_empty g in
  let b = Xmlest.Position_histogram.create_empty g in
  Xmlest.Position_histogram.add a ~i:0 ~j:1 5.0;
  Xmlest.Position_histogram.add b ~i:1 ~j:2 5.0;
  let diff = Xmlest.Position_histogram.map2 ( -. ) a b in
  check (Alcotest.float 1e-9) "difference sums to zero" 0.0
    (Xmlest.Position_histogram.total diff);
  let out = Format.asprintf "%a" Xmlest.Position_histogram.pp_heatmap diff in
  Alcotest.(check bool) "no NaN in output" false
    (Test_util.contains_substring out "nan");
  (* both non-zero cells are the largest magnitude -> dense marker *)
  Alcotest.(check bool) "non-zero cells still visible" true
    (String.contains out '#');
  let neg = Xmlest.Position_histogram.scale a (-1.0) in
  let out_neg = Format.asprintf "%a" Xmlest.Position_histogram.pp_heatmap neg in
  Alcotest.(check bool) "negative total renders too" false
    (Test_util.contains_substring out_neg "nan")

(* --- Coverage histogram ----------------------------------------------------- *)

let test_coverage_fig1 () =
  (* Faculty coverage on Fig. 1 with a 2×2 grid (paper's Fig. 8): cell
     (0,0) has some fraction covered, and total coverage equals the exact
     fraction of nodes below faculty nodes per cell. *)
  let doc = Test_util.fig1_doc () in
  let g = grid_of doc 2 in
  let cvg = Xmlest.Coverage_histogram.build doc ~grid:g (Xmlest.Predicate.tag "faculty") in
  (* Exact: count nodes under faculty per cell. *)
  let faculty = Xmlest.Predicate.tag "faculty" in
  let covered = Array.make 4 0.0 and pop = Array.make 4 0.0 in
  let n = Xmlest.Document.size doc in
  for v = 0 to n - 1 do
    let i = Xmlest.Grid.bucket g (Xmlest.Document.start_pos doc v) in
    let j = Xmlest.Grid.bucket g (Xmlest.Document.end_pos doc v) in
    let cell = (i * 2) + j in
    pop.(cell) <- pop.(cell) +. 1.0;
    let under_faculty = ref false in
    let rec walk u =
      let p = Xmlest.Document.parent doc u in
      if p >= 0 then begin
        if Xmlest.Predicate.eval faculty doc p then under_faculty := true
        else walk p
      end
    in
    walk v;
    if !under_faculty then covered.(cell) <- covered.(cell) +. 1.0
  done;
  for i = 0 to 1 do
    for j = i to 1 do
      let cell = (i * 2) + j in
      let expected = if pop.(cell) > 0.0 then covered.(cell) /. pop.(cell) else 0.0 in
      check (Alcotest.float 1e-9)
        (Printf.sprintf "total coverage (%d,%d)" i j)
        expected
        (Xmlest.Coverage_histogram.total_coverage cvg ~i ~j)
    done
  done

let test_coverage_fractions_bounded () =
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.02) in
  let g = grid_of doc 10 in
  let cvg = Xmlest.Coverage_histogram.build doc ~grid:g (Xmlest.Predicate.tag "article") in
  for i = 0 to 9 do
    for j = i to 9 do
      let total = Xmlest.Coverage_histogram.total_coverage cvg ~i ~j in
      Alcotest.(check bool) "total in [0,1]" true (total >= 0.0 && total <= 1.0 +. 1e-9);
      Test_util.iter_covers cvg ~i ~j (fun ~m:_ ~n:_ f ->
          Alcotest.(check bool) "fraction in (0,1]" true (f > 0.0 && f <= 1.0 +. 1e-9))
    done
  done

let test_coverage_population_is_true_hist () =
  let doc = Test_util.fig1_doc () in
  let g = grid_of doc 4 in
  let cvg = Xmlest.Coverage_histogram.build doc ~grid:g (Xmlest.Predicate.tag "faculty") in
  let pop = Test_util.population doc ~grid:g in
  for i = 0 to 3 do
    for j = i to 3 do
      check (Alcotest.float 1e-9)
        (Printf.sprintf "population (%d,%d)" i j)
        (Xmlest.Position_histogram.get pop ~i ~j)
        (Xmlest.Coverage_histogram.populations cvg).(Xmlest.Grid.index g ~i ~j)
    done
  done

let test_theorem2_partial_entries () =
  (* Theorem 2: partial (0 < f < 1) coverage entries grow O(g). *)
  let doc = Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled 0.05) in
  List.iter
    (fun size ->
      let g = grid_of doc size in
      let cvg =
        Xmlest.Coverage_histogram.build doc ~grid:g (Xmlest.Predicate.tag "article")
      in
      let partial = Xmlest.Coverage_histogram.partial_entries cvg in
      Alcotest.(check bool)
        (Printf.sprintf "partial entries (%d) <= 4g" size)
        true
        (partial <= 4 * size))
    [ 10; 20; 40; 80 ]

let test_coverage_storage_accounting () =
  let doc = Test_util.fig1_doc () in
  let cvg =
    Xmlest.Coverage_histogram.build doc ~grid:(grid_of doc 4)
      (Xmlest.Predicate.tag "faculty")
  in
  check Alcotest.int "bytes = 10 × entries"
    (10
    * Xmlest.Coverage_histogram.fold_entries cvg ~init:0
        ~f:(fun n ~covered:_ ~covering:_ _ -> n + 1))
    (Xmlest.Coverage_histogram.storage_bytes cvg)

let prop_coverage_bounded =
  QCheck.Test.make ~count:100 ~name:"coverage fractions bounded on random trees"
    QCheck.(pair (Test_util.doc_two_tags_arbitrary ~max_nodes:60 ()) (int_range 2 8))
    (fun ((_, doc, t1, _), size) ->
      let g = grid_of doc size in
      let size = g.Xmlest.Grid.size in
      let cvg = Xmlest.Coverage_histogram.build doc ~grid:g (Xmlest.Predicate.tag t1) in
      let ok = ref true in
      for i = 0 to size - 1 do
        for j = i to size - 1 do
          let t = Xmlest.Coverage_histogram.total_coverage cvg ~i ~j in
          if t < -1e-9 || t > 1.0 +. 1e-9 then ok := false
        done
      done;
      !ok)

(* --- Histogram catalog ------------------------------------------------------- *)

(* Pure catalog behavior is tested with stub compute functions that count
   invocations; the real Ph_join wiring is exercised in test_estimate and
   test_core. *)
let stub_catalog () =
  let calls = ref 0 in
  let compute tag h =
    incr calls;
    let g = (Xmlest.Position_histogram.grid h).Xmlest.Grid.size in
    Array.make (g * g) (tag +. Xmlest.Position_histogram.total h)
  in
  ( Xmlest.Hist_catalog.create ~compute_desc:(compute 0.5) ~compute_anc:(compute 0.25) (),
    calls )

let sample_hist ?(v = 3.0) g =
  let h = Xmlest.Position_histogram.create_empty g in
  Xmlest.Position_histogram.add h ~i:0 ~j:1 v;
  Xmlest.Position_histogram.add h ~i:1 ~j:1 1.0;
  h

let test_catalog_memoizes () =
  let cat, calls = stub_catalog () in
  let g = Xmlest.Grid.create ~size:4 ~max_pos:39 in
  let h = sample_hist g in
  Xmlest.Hist_catalog.add cat ~key:"a" h;
  check Alcotest.int "no compute yet" 0 !calls;
  Alcotest.(check bool) "absent key" true
    (Xmlest.Hist_catalog.descendant_coefficients cat "missing" = None);
  let c1 = Xmlest.Hist_catalog.descendant_coefficients cat "a" in
  let c2 = Xmlest.Hist_catalog.descendant_coefficients cat "a" in
  check Alcotest.int "computed once" 1 !calls;
  (match (c1, c2) with
  | Some a1, Some a2 ->
    Alcotest.(check bool) "same cached array" true (a1 == a2);
    check (Alcotest.float 1e-9) "desc values" 4.5 a1.(0)
  | _ -> Alcotest.fail "expected coefficients");
  (match Xmlest.Hist_catalog.ancestor_coefficients cat "a" with
  | Some a -> check (Alcotest.float 1e-9) "anc values" 4.25 a.(0)
  | None -> Alcotest.fail "expected ancestor coefficients");
  check Alcotest.int "anc cached separately" 2 !calls;
  let c = Xmlest.Hist_catalog.counters cat in
  check Alcotest.int "hits" 1 c.Xmlest.Hist_catalog.hits;
  check Alcotest.int "misses (1 per kind)" 2 c.Xmlest.Hist_catalog.misses;
  check Alcotest.int "no recomputes" 0 c.Xmlest.Hist_catalog.recomputes;
  check Alcotest.int "two fresh arrays" 2 (Xmlest.Hist_catalog.cached_arrays cat)

let test_catalog_invalidates_on_mutation () =
  let cat, calls = stub_catalog () in
  let g = Xmlest.Grid.create ~size:4 ~max_pos:39 in
  let h = sample_hist g in
  Xmlest.Hist_catalog.add cat ~key:"a" h;
  ignore (Xmlest.Hist_catalog.descendant_coefficients cat "a");
  Xmlest.Position_histogram.add h ~i:0 ~j:2 1.0;
  check Alcotest.int "stale arrays dropped from count" 0
    (Xmlest.Hist_catalog.cached_arrays cat);
  (match Xmlest.Hist_catalog.descendant_coefficients cat "a" with
  | Some a ->
    check (Alcotest.float 1e-9) "recomputed from mutated histogram" 5.5 a.(0)
  | None -> Alcotest.fail "expected coefficients");
  check Alcotest.int "computed twice" 2 !calls;
  let c = Xmlest.Hist_catalog.counters cat in
  check Alcotest.int "one recompute" 1 c.Xmlest.Hist_catalog.recomputes;
  (* fresh again after the recompute *)
  ignore (Xmlest.Hist_catalog.descendant_coefficients cat "a");
  check Alcotest.int "no further compute" 2 !calls

let test_catalog_grid_discipline () =
  let cat, _ = stub_catalog () in
  let g = Xmlest.Grid.create ~size:4 ~max_pos:39 in
  Xmlest.Hist_catalog.add cat ~key:"a" (sample_hist g);
  let other = Xmlest.Grid.create ~size:5 ~max_pos:39 in
  Alcotest.check_raises "incompatible grid rejected"
    (Invalid_argument
       "Catalog.add: histogram \"b\" uses a grid incompatible with the \
        catalog's") (fun () ->
      Xmlest.Hist_catalog.add cat ~key:"b"
        (Xmlest.Position_histogram.create_empty other));
  check Alcotest.int "still one entry" 1 (List.length (Xmlest.Hist_catalog.keys cat));
  Alcotest.(check (list string)) "keys" [ "a" ] (Xmlest.Hist_catalog.keys cat)

(* --- Streaming builders ------------------------------------------------- *)

let prop_position_builder_equals_build =
  QCheck.Test.make ~count:100 ~name:"position builder = build"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ())
    (fun (_, doc, t1, _) ->
      let grid =
        Xmlest.Grid.create
          ~size:(min 4 (Xmlest.Document.max_pos doc + 1))
          ~max_pos:(Xmlest.Document.max_pos doc)
      in
      let pred = Xmlest.Predicate.tag t1 in
      let reference = Xmlest.Position_histogram.build doc ~grid pred in
      let b = Xmlest.Position_histogram.builder grid in
      Array.iter
        (fun v ->
          let i, j =
            Xmlest.Grid.cell_of_node grid
              ~start_pos:(Xmlest.Document.start_pos doc v)
              ~end_pos:(Xmlest.Document.end_pos doc v)
          in
          Xmlest.Position_histogram.feed_cell b (Xmlest.Grid.index grid ~i ~j))
        (Xmlest.Document.nodes_with_tag doc t1);
      Test_util.hist_equal (Xmlest.Position_histogram.finish b)
        reference)

let test_level_builder () =
  let empty = Xmlest.Level_histogram.finish (Xmlest.Level_histogram.builder ()) in
  check Alcotest.(list (float 1e-9)) "empty counts" [ 0.0 ]
    (Array.to_list (Xmlest.Level_histogram.counts empty));
  let doc = Test_util.fig1_doc () in
  let pred = Xmlest.Predicate.tag "RA" in
  let b = Xmlest.Level_histogram.builder () in
  Array.iter
    (fun v -> Xmlest.Level_histogram.feed b (Xmlest.Document.level doc v))
    (Xmlest.Predicate.matching_nodes doc pred);
  let built = Xmlest.Level_histogram.finish b in
  let reference = Xmlest.Level_histogram.build doc pred in
  check Alcotest.(list (float 1e-9)) "builder = build"
    (Array.to_list (Xmlest.Level_histogram.counts reference))
    (Array.to_list (Xmlest.Level_histogram.counts built))

let prop_coverage_builder_equals_build =
  QCheck.Test.make ~count:100 ~name:"coverage builder = build"
    (Test_util.doc_two_tags_arbitrary ~max_nodes:50 ())
    (fun (_, doc, t1, _) ->
      let grid =
        Xmlest.Grid.create
          ~size:(min 4 (Xmlest.Document.max_pos doc + 1))
          ~max_pos:(Xmlest.Document.max_pos doc)
      in
      let pred = Xmlest.Predicate.tag t1 in
      let reference = Xmlest.Coverage_histogram.build doc ~grid pred in
      (* drive the builder by hand: parent-chain nearest P-ancestor plus
         per-cell populations, exactly the feed sequence of build *)
      let n = Xmlest.Document.size doc in
      let cell v =
        Xmlest.Grid.index grid
          ~i:(Xmlest.Grid.bucket grid (Xmlest.Document.start_pos doc v))
          ~j:(Xmlest.Grid.bucket grid (Xmlest.Document.end_pos doc v))
      in
      let nearest = Array.make n (-1) in
      let populations = Array.make (Xmlest.Grid.cells grid) 0.0 in
      let b = Xmlest.Coverage_histogram.builder grid in
      for v = 0 to n - 1 do
        populations.(cell v) <- populations.(cell v) +. 1.0;
        let p = Xmlest.Document.parent doc v in
        if p >= 0 then
          nearest.(v) <-
            (if Xmlest.Predicate.eval pred doc p then p else nearest.(p));
        if nearest.(v) >= 0 then
          Xmlest.Coverage_histogram.feed b ~covered:(cell v)
            ~covering:(cell nearest.(v))
      done;
      let built = Xmlest.Coverage_histogram.finish b ~populations in
      let entries h =
        Xmlest.Coverage_histogram.fold_entries h ~init:[]
          ~f:(fun acc ~covered ~covering frac -> (covered, covering, frac) :: acc)
      in
      List.sort Stdlib.compare (entries built)
      = List.sort Stdlib.compare (entries reference)
      && Array.to_list (Xmlest.Coverage_histogram.populations built)
         = Array.to_list (Xmlest.Coverage_histogram.populations reference))

(* A random stream of feeds and signed adds over [keys] keys, and the net
   count it leaves on each: feeds and adds interleave, an add may drive
   a count below zero on the way, and feeds appended at the end leave
   every net count non-negative. *)
let signed_stream st ~keys =
  let ops =
    List.init (Random.State.int st 60) (fun _ ->
        let key = Random.State.int st keys in
        match Random.State.int st 3 with
        | 0 -> (key, None)
        | _ -> (key, Some (float_of_int (Random.State.int st 7 - 3))))
  in
  let net = Array.make keys 0 in
  List.iter
    (fun (key, d) ->
      net.(key) <- net.(key) + match d with None -> 1 | Some d -> int_of_float d)
    ops;
  let ops =
    ops
    @ List.concat
        (List.init keys (fun key ->
             let top = Int.max 0 (-net.(key)) + Random.State.int st 2 in
             net.(key) <- net.(key) + top;
             List.init top (fun _ -> (key, None))))
  in
  (ops, net)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_builders_signed_edits =
  QCheck.Test.make ~count:300 ~name:"builders: feeds and signed adds = net feeds, bit for bit"
    QCheck.(pair (int_range 1 4) (int_bound 1_000_000))
    (fun (size, seed) ->
      let st = Random.State.make [| seed |] in
      (* Level builder: one key per level. *)
      let ops, net = signed_stream st ~keys:12 in
      let edited = Xmlest.Level_histogram.builder () in
      List.iter
        (fun (l, d) ->
          match d with
          | None -> Xmlest.Level_histogram.feed edited l
          | Some d -> Xmlest.Level_histogram.add edited l d)
        ops;
      let fresh = Xmlest.Level_histogram.builder () in
      Array.iteri
        (fun l n ->
          for _ = 1 to n do
            Xmlest.Level_histogram.feed fresh l
          done)
        net;
      let counts b = Xmlest.Level_histogram.(counts (finish b)) in
      let a = counts edited and b = counts fresh in
      let levels_ok =
        Int.equal (Array.length a) (Array.length b) && Array.for_all2 same_bits a b
      in
      (* Coverage builder: one key per (covered, covering) pair. *)
      let grid = Xmlest.Grid.create ~size ~max_pos:(4 * size) in
      let cells = Xmlest.Grid.cells grid in
      let ops, net = signed_stream st ~keys:(cells * cells) in
      let edited = Xmlest.Coverage_histogram.builder grid in
      List.iter
        (fun (key, d) ->
          let covered = key / cells and covering = key mod cells in
          match d with
          | None -> Xmlest.Coverage_histogram.feed edited ~covered ~covering
          | Some d -> Xmlest.Coverage_histogram.add edited ~covered ~covering d)
        ops;
      let fresh = Xmlest.Coverage_histogram.builder grid in
      let populations = Array.init cells (fun _ -> float_of_int (1 + Random.State.int st 5)) in
      Array.iteri
        (fun key n ->
          populations.(key / cells) <- populations.(key / cells) +. float_of_int n;
          for _ = 1 to n do
            Xmlest.Coverage_histogram.feed fresh ~covered:(key / cells) ~covering:(key mod cells)
          done)
        net;
      let entries b =
        let h = Xmlest.Coverage_histogram.finish b ~populations in
        ( List.rev
            (Xmlest.Coverage_histogram.fold_entries h ~init:[]
               ~f:(fun acc ~covered ~covering f -> (covered, covering, f) :: acc)),
          List.init cells (fun c ->
              Xmlest.Coverage_histogram.total_coverage h ~i:(c / size) ~j:(c mod size)) )
      in
      let (ea, ta), (eb, tb) = (entries edited, entries fresh) in
      levels_ok
      && List.equal
           (fun (c1, m1, f1) (c2, m2, f2) -> Int.equal c1 c2 && Int.equal m1 m2 && same_bits f1 f2)
           ea eb
      && List.equal same_bits ta tb)

let test_equidepth_duplicate_positions () =
  (* regression for the Int.compare sort: duplicates and reverse order must
     yield the same boundaries as the sorted input *)
  let sorted = [| 0; 0; 3; 3; 3; 7; 9; 9; 12; 15 |] in
  let shuffled = [| 15; 3; 9; 0; 12; 3; 7; 0; 9; 3 |] in
  let g1 = Xmlest.Grid.equidepth ~size:4 ~max_pos:15 ~positions:sorted in
  let g2 = Xmlest.Grid.equidepth ~size:4 ~max_pos:15 ~positions:shuffled in
  check Alcotest.(list int) "same boundaries"
    (Array.to_list g1.Xmlest.Grid.boundaries)
    (Array.to_list g2.Xmlest.Grid.boundaries)

(* --- Level histogram -------------------------------------------------------- *)

let test_level_histogram () =
  let doc = Test_util.fig1_doc () in
  let lvl = Xmlest.Level_histogram.build doc (Xmlest.Predicate.tag "RA") in
  check
    Alcotest.(list (float 1e-9))
    "all 10 RAs at level 2" [ 0.0; 0.0; 10.0 ]
    (Array.to_list (Xmlest.Level_histogram.counts lvl))

let test_child_fraction () =
  let doc = Test_util.fig1_doc () in
  let dept = Xmlest.Level_histogram.build doc (Xmlest.Predicate.tag "department") in
  let fac = Xmlest.Level_histogram.build doc (Xmlest.Predicate.tag "faculty") in
  (* department at level 0, faculty at level 1: every anc-desc level pair is
     parent-child. *)
  check (Alcotest.float 1e-9) "all pairs are parent-child" 1.0
    (Xmlest.Level_histogram.child_fraction ~anc:dept ~desc:fac);
  let ra = Xmlest.Level_histogram.build doc (Xmlest.Predicate.tag "RA") in
  (* department level 0, RA level 2: no level pair is parent-child. *)
  check (Alcotest.float 1e-9) "no parent-child pairs" 0.0
    (Xmlest.Level_histogram.child_fraction ~anc:dept ~desc:ra)

let test_child_fraction_degenerate () =
  let doc = Test_util.fig1_doc () in
  let ra = Xmlest.Level_histogram.build doc (Xmlest.Predicate.tag "RA") in
  (* same level: no anc-desc level pairs at all -> neutral 1.0 *)
  check (Alcotest.float 1e-9) "no pairs -> neutral" 1.0
    (Xmlest.Level_histogram.child_fraction ~anc:ra ~desc:ra)

(* The non-zero cells a histogram keeps from its construction are what a
   fresh scan finds, after any sequence of constructions and edits:
   [add] (of zeros, negative counts and cancellations too), [finish],
   [of_nonzero] (zero values and repeated cells included), [copy] (which
   shares the kept cells with its original), [scale] (by ±0, a negative
   factor and NaN) and [map2]. *)
let prop_nonzero_is_fresh_scan =
  QCheck.Test.make ~count:200 ~name:"nonzero = a fresh scan, after any construction or edit"
    QCheck.(pair (oneofl [ 1; 2; 3; 7 ]) (int_bound 1_000_000))
    (fun (size, seed) ->
      let module H = Xmlest.Position_histogram in
      let st = Random.State.make [| seed |] in
      let grid = Xmlest.Grid.create ~size ~max_pos:100 in
      let pick_of l = List.nth l (Random.State.int st (List.length l)) in
      let cell () =
        let i = Random.State.int st size in
        (i, i + Random.State.int st (size - i))
      in
      let index () =
        let i, j = cell () in
        Xmlest.Grid.index grid ~i ~j
      in
      let value () = pick_of [ 0.0; -0.0; -1.0; 0.5; 1.0; 3.0 ] in
      let pool = ref [ H.create_empty grid ] in
      let ok = ref true in
      for _ = 1 to 30 do
        let made =
          match Random.State.int st 7 with
          | 0 ->
            let i, j = cell () in
            H.add (pick_of !pool) ~i ~j (value ());
            None
          | 1 ->
            let b = H.builder grid in
            for _ = 1 to Random.State.int st 8 do
              H.feed_cell b (index ())
            done;
            Some (H.finish b)
          | 2 ->
            let n = Random.State.int st 5 in
            let at = Array.init n (fun _ -> index ()) in
            Some (H.of_nonzero ~grid at (Array.init n (fun _ -> value ())))
          | 3 -> Some (H.copy (pick_of !pool))
          | 4 -> Some (H.scale (pick_of !pool) (pick_of [ 0.0; -0.0; -1.0; 2.5; nan ]))
          | 5 ->
            let f = pick_of [ ( +. ); ( -. ); ( *. ) ] in
            Some (H.map2 f (pick_of !pool) (pick_of !pool))
          | _ ->
            ignore (H.nonzero (pick_of !pool));
            None
        in
        Option.iter (fun h -> pool := h :: !pool) made;
        if not (List.for_all Test_util.nonzero_is_fresh_scan !pool) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "histogram"
    [
      ( "grid",
        [
          Alcotest.test_case "geometry" `Quick test_grid_geometry;
          Alcotest.test_case "covers max_pos" `Quick test_grid_covers_max_pos;
          Alcotest.test_case "bad arguments" `Quick test_grid_bad_args;
          Alcotest.test_case "compatibility" `Quick test_grid_compatible;
          Alcotest.test_case "equidepth boundaries" `Quick test_equidepth_boundaries;
          Alcotest.test_case "equidepth accepts unsorted positions" `Quick
            test_equidepth_unsorted;
          Alcotest.test_case "equidepth balances population" `Quick
            test_equidepth_balances_population;
          Alcotest.test_case "equidepth degenerate inputs" `Quick
            test_equidepth_degenerate;
          Alcotest.test_case "equidepth duplicate positions" `Quick
            test_equidepth_duplicate_positions;
          Alcotest.test_case "histogram on equidepth grid" `Quick
            test_histogram_on_equidepth_grid;
          qcheck prop_equidepth_bucket_consistent;
        ] );
      ( "position",
        [
          Alcotest.test_case "totals" `Quick test_hist_totals;
          Alcotest.test_case "upper triangle only" `Quick test_hist_upper_triangle;
          Alcotest.test_case "paper 2x2 example (Fig. 7)" `Quick test_hist_paper_example;
          Alcotest.test_case "Lemma 1 violation detected" `Quick
            test_lemma1_rejects_violation;
          Alcotest.test_case "Theorem 1: O(g) non-zero cells" `Quick
            test_theorem1_nonzero_growth;
          Alcotest.test_case "storage accounting" `Quick test_hist_storage_accounting;
          Alcotest.test_case "map2 and scale" `Quick test_hist_map2_scale;
          Alcotest.test_case "set and get" `Quick test_hist_set_get;
          Alcotest.test_case "rejects below-diagonal writes" `Quick
            test_hist_rejects_below_diagonal;
          Alcotest.test_case "version counter" `Quick test_hist_version_counter;
          qcheck prop_lemma1;
          qcheck prop_total_equals_nonzero_sum;
          qcheck prop_nonzero_is_fresh_scan;
          Alcotest.test_case "heatmap renders" `Quick test_heatmap_renders;
          Alcotest.test_case "heatmap with zero total" `Quick test_heatmap_zero_total;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "memoizes coefficients" `Quick test_catalog_memoizes;
          Alcotest.test_case "invalidates on mutation" `Quick
            test_catalog_invalidates_on_mutation;
          Alcotest.test_case "grid discipline" `Quick test_catalog_grid_discipline;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "fig1 coverage exact" `Quick test_coverage_fig1;
          Alcotest.test_case "fractions bounded" `Quick test_coverage_fractions_bounded;
          Alcotest.test_case "population = TRUE histogram" `Quick
            test_coverage_population_is_true_hist;
          Alcotest.test_case "Theorem 2: O(g) partial entries" `Quick
            test_theorem2_partial_entries;
          Alcotest.test_case "storage accounting" `Quick
            test_coverage_storage_accounting;
          qcheck prop_coverage_bounded;
        ] );
      ( "builders",
        [
          qcheck prop_position_builder_equals_build;
          Alcotest.test_case "level builder" `Quick test_level_builder;
          qcheck prop_coverage_builder_equals_build;
          qcheck prop_builders_signed_edits;
        ] );
      ( "level",
        [
          Alcotest.test_case "build and query" `Quick test_level_histogram;
          Alcotest.test_case "child fraction" `Quick test_child_fraction;
          Alcotest.test_case "degenerate child fraction" `Quick
            test_child_fraction_degenerate;
        ] );
    ]
