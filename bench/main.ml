(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5) on the synthetic stand-in data sets, plus the
   ablations called out in DESIGN.md.  Performance is measured by
   bench/perf, not here.

   Usage: main.exe [section ...]
   Sections: table1 table2 table3 table4 fig11 fig12 twig datasets
             accuracy ablation theorems (default: all). *)

open Xmlest_core

let tagp = Xmlest.Predicate.tag

let overlap_options =
  { Xmlest.Twig_estimator.default_options with use_no_overlap = false }

let pair_pattern anc desc = Xmlest.Pattern.twig anc [ desc ]

(* ------------------------------------------------------------------ *)
(* Table 1: characteristics of the DBLP predicates                     *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [
    ("article", 7_366, "no overlap");
    ("author", 41_501, "no overlap");
    ("book", 408, "no overlap");
    ("cdrom", 1_722, "no overlap");
    ("cite", 33_097, "no overlap");
    ("title", 19_921, "no overlap");
    ("url", 19_542, "no overlap");
    ("year", 19_914, "no overlap");
    ("conf", 13_609, "n/a");
    ("journal", 7_834, "n/a");
    ("1980's", 13_066, "n/a");
    ("1990's", 3_963, "n/a");
  ]

let table1 () =
  Report.section "Table 1: characteristics of predicates on the DBLP data set";
  let doc = Data.dblp () in
  Report.note "simulated DBLP, scale %.2f: %d element nodes" Data.dblp_scale
    (Xmlest.Document.size doc);
  let rows =
    List.map2
      (fun (name, pred) (pname, pcount, poverlap) ->
        assert (String.equal name pname);
        let nodes = Xmlest.Predicate.matching_nodes doc pred in
        let overlap =
          match poverlap with
          | "n/a" -> "n/a"
          | _ ->
            if Xmlest.Interval_ops.has_nesting doc nodes then "overlap"
            else "no overlap"
        in
        [
          name;
          string_of_int (Array.length nodes);
          string_of_int pcount;
          overlap;
          poverlap;
        ])
      (Data.dblp_predicates ()) paper_table1
  in
  Report.table
    ([ "predicate"; "count"; "paper count"; "overlap"; "paper overlap" ] :: rows)

(* ------------------------------------------------------------------ *)
(* Tables 2 and 4: simple-query result-size estimation                 *)
(* ------------------------------------------------------------------ *)

type simple_row = {
  label : string;
  anc : Xmlest.Predicate.t;
  desc : Xmlest.Predicate.t;
  no_overlap_applies : bool;
  paper : string;  (* the paper's (overlap est, no-overlap est, real) *)
}

let simple_query_table ~summary ~doc rows =
  let header =
    [
      "query"; "naive"; "upper"; "overlap-est"; "time"; "no-ovl-est"; "time";
      "real"; "ovl/real"; "novl/real"; "paper(ovl,novl,real)";
    ]
  in
  let body =
    List.map
      (fun r ->
        let pat = pair_pattern r.anc r.desc in
        let anc_count = Xmlest.Summary.node_count summary r.anc in
        let desc_count = Xmlest.Summary.node_count summary r.desc in
        let naive =
          Xmlest.Baselines.naive
            ~anc_count:(int_of_float anc_count)
            ~desc_count:(int_of_float desc_count)
        in
        let overlap_est =
          Xmlest.Summary.estimate ~options:overlap_options summary pat
        in
        let overlap_time =
          Data.time_per_call (fun () ->
              Xmlest.Summary.estimate ~options:overlap_options summary pat)
        in
        let no_ovl_est, no_ovl_time =
          if r.no_overlap_applies then
            ( Xmlest.Summary.estimate summary pat,
              Data.time_per_call (fun () -> Xmlest.Summary.estimate summary pat) )
          else (nan, nan)
        in
        let real = float_of_int (Xmlest.Twig_count.count doc pat) in
        [
          r.label;
          Report.f0 naive;
          Report.f0
            (Xmlest.Baselines.descendant_upper_bound
               ~desc_count:(int_of_float desc_count));
          Report.f1 overlap_est;
          Report.us overlap_time;
          (if Float.is_nan no_ovl_est then "n/a" else Report.f1 no_ovl_est);
          (if Float.is_nan no_ovl_time then "n/a" else Report.us no_ovl_time);
          Report.f0 real;
          Report.ratio overlap_est real;
          (if Float.is_nan no_ovl_est then "n/a" else Report.ratio no_ovl_est real);
          r.paper;
        ])
      rows
  in
  Report.table (header :: body)

let table2 () =
  Report.section "Table 2: result size estimation for simple queries (DBLP)";
  let summary = Data.dblp_summary () and doc = Data.dblp () in
  simple_query_table ~summary ~doc
    [
      {
        label = "article//author";
        anc = tagp "article";
        desc = tagp "author";
        no_overlap_applies = true;
        paper = "(2415480, 14627, 14644)";
      };
      {
        label = "article//cdrom";
        anc = tagp "article";
        desc = tagp "cdrom";
        no_overlap_applies = true;
        paper = "(4379, 112, 130)";
      };
      {
        label = "article//cite";
        anc = tagp "article";
        desc = tagp "cite";
        no_overlap_applies = true;
        paper = "(671722, 3958, 5114)";
      };
      {
        label = "book//cdrom";
        anc = tagp "book";
        desc = tagp "cdrom";
        no_overlap_applies = true;
        paper = "(179, 4, 3)";
      };
    ];
  Report.note
    "expected shape: naive >> overlap-est >> real; no-ovl-est ~ real (the \
     paper's overlap estimates are 35-165x off, its no-overlap ones ~1x)"

let table3 () =
  Report.section "Table 3: characteristics of predicates on the synthetic data set";
  let doc = Data.staff () in
  Report.note "staff DTD data: %d element nodes" (Xmlest.Document.size doc);
  let paper =
    [
      ("manager", 44, "overlap");
      ("department", 270, "overlap");
      ("employee", 473, "no overlap");
      ("email", 173, "no overlap");
      ("name", 1002, "no overlap");
    ]
  in
  let rows =
    List.map2
      (fun (name, pred) (pname, pcount, poverlap) ->
        assert (String.equal name pname);
        let nodes = Xmlest.Predicate.matching_nodes doc pred in
        [
          name;
          string_of_int (Array.length nodes);
          string_of_int pcount;
          (if Xmlest.Interval_ops.has_nesting doc nodes then "overlap"
           else "no overlap");
          poverlap;
        ])
      (Data.staff_predicates ()) paper
  in
  Report.table
    ([ "predicate"; "count"; "paper count"; "overlap"; "paper overlap" ] :: rows)

let table4 () =
  Report.section "Table 4: result size estimation for simple queries (synthetic)";
  let summary = Data.staff_summary () and doc = Data.staff () in
  simple_query_table ~summary ~doc
    [
      {
        label = "manager//department";
        anc = tagp "manager";
        desc = tagp "department";
        no_overlap_applies = false;
        paper = "(656, n/a, 761)";
      };
      {
        label = "manager//employee";
        anc = tagp "manager";
        desc = tagp "employee";
        no_overlap_applies = false;
        paper = "(1205, n/a, 1395)";
      };
      {
        label = "manager//email";
        anc = tagp "manager";
        desc = tagp "email";
        no_overlap_applies = false;
        paper = "(429, n/a, 491)";
      };
      {
        label = "department//employee";
        anc = tagp "department";
        desc = tagp "employee";
        no_overlap_applies = false;
        paper = "(2914, n/a, 1663)";
      };
      {
        label = "department//email";
        anc = tagp "department";
        desc = tagp "email";
        no_overlap_applies = false;
        paper = "(1082, n/a, 473)";
      };
      {
        label = "employee//name";
        anc = tagp "employee";
        desc = tagp "name";
        no_overlap_applies = true;
        paper = "(8070, 559, 688)";
      };
      {
        label = "employee//email";
        anc = tagp "employee";
        desc = tagp "email";
        no_overlap_applies = true;
        paper = "(1391, 96, 99)";
      };
    ];
  Report.note
    "expected shape: overlap-est close to real under recursive ancestors, \
     high for department//*; no-overlap estimates closest"

(* ------------------------------------------------------------------ *)
(* Figures 11 and 12: storage and accuracy vs grid size                *)
(* ------------------------------------------------------------------ *)

let grid_sizes = [ 2; 5; 10; 15; 20; 25; 30; 40; 50 ]

let fig11 () =
  Report.section
    "Fig. 11: storage and accuracy vs grid size, overlap predicates \
     (department//email, synthetic)";
  let doc = Data.staff () in
  let dept = tagp "department" and email = tagp "email" in
  let real = float_of_int (Data.real_pair doc dept email) in
  let rows =
    List.map
      (fun size ->
        let grid = Xmlest.Grid.create ~size ~max_pos:(Xmlest.Document.max_pos doc) in
        let hd = Xmlest.Position_histogram.build doc ~grid dept in
        let he = Xmlest.Position_histogram.build doc ~grid email in
        let est = Xmlest.Ph_join.estimate ~anc:hd ~desc:he () in
        [
          string_of_int size;
          string_of_int (Xmlest.Position_histogram.storage_bytes hd);
          string_of_int (Xmlest.Position_histogram.storage_bytes he);
          string_of_int (Xmlest.Position_histogram.nonzero_cells hd);
          string_of_int (Xmlest.Position_histogram.nonzero_cells he);
          Report.f1 est;
          Report.f0 real;
          Report.ratio est real;
        ])
      grid_sizes
  in
  Report.table
    ([
       "grid"; "dept bytes"; "email bytes"; "dept cells"; "email cells";
       "estimate"; "real"; "est/real";
     ]
    :: rows);
  Report.note
    "expected shape: bytes linear in grid size (~2 cells per unit of g); \
     est/real converging to ~1 past grid 10-20"

let fig12 () =
  Report.section
    "Fig. 12: storage and accuracy vs grid size, no-overlap predicates \
     (article//cdrom, DBLP)";
  let doc = Data.dblp () in
  let article = tagp "article" and cdrom = tagp "cdrom" in
  let real = float_of_int (Data.real_pair doc article cdrom) in
  let rows =
    List.map
      (fun size ->
        let grid = Xmlest.Grid.create ~size ~max_pos:(Xmlest.Document.max_pos doc) in
        let ha = Xmlest.Position_histogram.build doc ~grid article in
        let hc = Xmlest.Position_histogram.build doc ~grid cdrom in
        let cvg_a = Xmlest.Coverage_histogram.build doc ~grid article in
        let cvg_c = Xmlest.Coverage_histogram.build doc ~grid cdrom in
        let est = Xmlest.No_overlap.estimate ~desc:hc ~coverage:cvg_a in
        [
          string_of_int size;
          string_of_int (Xmlest.Position_histogram.storage_bytes ha);
          string_of_int (Xmlest.Coverage_histogram.storage_bytes cvg_a);
          string_of_int (Xmlest.Position_histogram.storage_bytes hc);
          string_of_int (Xmlest.Coverage_histogram.storage_bytes cvg_c);
          Report.f1 est;
          Report.f0 real;
          Report.ratio est real;
        ])
      grid_sizes
  in
  Report.table
    ([
       "grid"; "hist(article)"; "cvg(article)"; "hist(cdrom)"; "cvg(cdrom)";
       "estimate"; "real"; "est/real";
     ]
    :: rows);
  Report.note
    "expected shape: histogram and coverage bytes linear in grid size; \
     est/real within 1 +/- 0.05 from grid ~5 onward"

(* ------------------------------------------------------------------ *)
(* Twig queries (the paper's motivating complex patterns)              *)
(* ------------------------------------------------------------------ *)

let twig () =
  Report.section "Twig queries: estimate vs real on all data sets";
  let cases =
    [
      ("staff", Data.staff (), Data.staff_summary (),
       "//manager[.//department][.//employee]");
      ("staff", Data.staff (), Data.staff_summary (),
       "//manager//department//employee");
      ("staff", Data.staff (), Data.staff_summary (),
       "//department[.//employee[.//email]]");
      ("dblp", Data.dblp (), Data.dblp_summary (), "//article[.//author][.//cite]");
      ("dblp", Data.dblp (), Data.dblp_summary (), "//article[.//author][.//cdrom]");
      ("dblp", Data.dblp (), Data.dblp_summary (), "//book[.//author][.//title]");
      ( "dblp", Data.dblp (), Data.dblp_summary (),
        "//article[.//cite[starts-with(text(),'conf')]]" );
    ]
  in
  let rows =
    List.map
      (fun (ds, doc, summary, query) ->
        let pattern = Xmlest.Pattern_parser.pattern_exn query in
        let est = Xmlest.Summary.estimate summary pattern in
        let est_ovl =
          Xmlest.Summary.estimate ~options:overlap_options summary pattern
        in
        let real = float_of_int (Xmlest.Twig_count.count doc pattern) in
        [
          ds; query; Report.f1 est_ovl; Report.f1 est; Report.f0 real;
          Report.ratio est real;
        ])
      cases
  in
  Report.table
    ([ "data"; "query"; "overlap-est"; "no-ovl-est"; "real"; "novl/real" ] :: rows)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  Report.section "Ablation: estimation direction (ancestor- vs descendant-based)";
  let cases =
    [
      ("dblp", Data.dblp (), tagp "article", tagp "author");
      ("dblp", Data.dblp (), tagp "article", tagp "cite");
      ("staff", Data.staff (), tagp "manager", tagp "employee");
      ("staff", Data.staff (), tagp "department", tagp "email");
    ]
  in
  let rows =
    List.map
      (fun (ds, doc, anc, desc) ->
        let grid = Xmlest.Grid.create ~size:10 ~max_pos:(Xmlest.Document.max_pos doc) in
        let ha = Xmlest.Position_histogram.build doc ~grid anc in
        let hd = Xmlest.Position_histogram.build doc ~grid desc in
        let anc_based = Xmlest.Ph_join.estimate ~anc:ha ~desc:hd () in
        let desc_based =
          Xmlest.Ph_join.estimate ~direction:Xmlest.Ph_join.Descendant_based
            ~anc:ha ~desc:hd ()
        in
        let real = float_of_int (Data.real_pair doc anc desc) in
        [
          ds;
          Printf.sprintf "%s//%s" (Xmlest.Predicate.name anc)
            (Xmlest.Predicate.name desc);
          Report.f1 anc_based;
          Report.f1 desc_based;
          Report.f0 real;
          Report.ratio anc_based real;
          Report.ratio desc_based real;
        ])
      cases
  in
  Report.table
    ([ "data"; "query"; "anc-based"; "desc-based"; "real"; "anc/real"; "desc/real" ]
    :: rows);

  Report.section "Ablation: level correction for parent-child edges (extension)";
  let doc = Data.staff () and summary = Data.staff_summary () in
  let level_options =
    { Xmlest.Twig_estimator.default_options with
      child_mode = Xmlest.Twig_estimator.Level_scaled }
  in
  let cell_options =
    { Xmlest.Twig_estimator.default_options with
      child_mode = Xmlest.Twig_estimator.Cell_level_scaled }
  in
  let rows =
    List.map
      (fun query ->
        let pattern =
          (Xmlest.Pattern_parser.parse_exn query).Xmlest.Pattern_parser.root
        in
        let plain = Xmlest.Summary.estimate summary pattern in
        let leveled = Xmlest.Summary.estimate ~options:level_options summary pattern in
        let celled = Xmlest.Summary.estimate ~options:cell_options summary pattern in
        let real = float_of_int (Xmlest.Twig_count.count doc pattern) in
        [
          query; Report.f1 plain; Report.f1 leveled; Report.f1 celled;
          Report.f0 real; Report.ratio plain real; Report.ratio leveled real;
          Report.ratio celled real;
        ])
      [ "//department/email"; "//employee/name"; "//manager/department" ]
  in
  Report.table
    ([
       "query"; "as-desc"; "level-scaled"; "cell-level"; "real"; "desc/real";
       "lvl/real"; "cell/real";
     ]
    :: rows);

  Report.section
    "Ablation: equi-depth vs uniform grids at equal size (Sec. 7 future work)";
  let cases =
    [
      ("dblp", Data.dblp (), "//article//author");
      ("dblp", Data.dblp (), "//article//cdrom");
      ("dblp", Data.dblp (), "//book//cdrom");
      ("staff", Data.staff (), "//department//email");
      ("staff", Data.staff (), "//employee//name");
    ]
  in
  let rows =
    List.map
      (fun (ds, doc, query) ->
        let pattern = Xmlest.Pattern_parser.pattern_exn query in
        let preds = Xmlest.Pattern.predicates pattern in
        let uniform = Xmlest.Summary.build ~grid_size:10 ~with_levels:false doc preds in
        let equidepth =
          Xmlest.Summary.build ~grid_size:10 ~grid_kind:`Equidepth
            ~with_levels:false doc preds
        in
        let eu = Xmlest.Summary.estimate uniform pattern in
        let ee = Xmlest.Summary.estimate equidepth pattern in
        let real = float_of_int (Xmlest.Twig_count.count doc pattern) in
        [
          ds; query; Report.f1 eu; Report.f1 ee; Report.f0 real;
          Report.ratio eu real; Report.ratio ee real;
        ])
      cases
  in
  Report.table
    ([ "data"; "query"; "uniform"; "equi-depth"; "real"; "unif/real"; "eqd/real" ]
    :: rows);

  Report.section
    "Ablation: ordered semantics (following axis, Sec. 7 future work)";
  let doc_d = Data.dblp () in
  let rows =
    List.map
      (fun (t1, t2) ->
        let grid =
          Xmlest.Grid.create ~size:10 ~max_pos:(Xmlest.Document.max_pos doc_d)
        in
        let before = Xmlest.Position_histogram.build doc_d ~grid (tagp t1) in
        let after = Xmlest.Position_histogram.build doc_d ~grid (tagp t2) in
        let est = Xmlest.Order_join.estimate ~before ~after () in
        let real =
          float_of_int
            (Xmlest.Structural_join.count_following doc_d
               (Xmlest.Document.nodes_with_tag doc_d t1)
               (Xmlest.Document.nodes_with_tag doc_d t2))
        in
        [
          Printf.sprintf "%s << %s" t1 t2; Report.f0 est; Report.f0 real;
          Report.ratio est real;
        ])
      [ ("article", "book"); ("book", "article"); ("article", "inproceedings") ]
  in
  Report.table ([ "pair (before << after)"; "estimate"; "real"; "est/real" ] :: rows);

  Report.section "Ablation: optimizer plan choice (Sec. 1 motivation)";
  let pattern =
    Xmlest.Pattern_parser.pattern_exn "//manager//department[.//employee][.//email]"
  in
  let ranked = Xmlest.Optimizer.rank (Xmlest.Summary.catalog summary) pattern in
  let rows =
    List.map
      (fun c ->
        let actual = Xmlest.Optimizer.actual_cost doc pattern c.Xmlest.Optimizer.plan in
        [
          Format.asprintf "%a" Xmlest.Plan.pp c.Xmlest.Optimizer.plan;
          Report.f1 c.Xmlest.Optimizer.cost;
          string_of_int actual;
        ])
      ranked
  in
  Report.table ([ "plan (node order)"; "estimated cost"; "actual cost" ] :: rows);
  let best =
    match ranked with
    | b :: _ -> b
    | [] -> failwith "plan bench: optimizer returned no plans"
  in
  let best_actual = Xmlest.Optimizer.actual_cost doc pattern best.Xmlest.Optimizer.plan in
  let optimal =
    List.fold_left
      (fun acc c ->
        Int.min acc (Xmlest.Optimizer.actual_cost doc pattern c.Xmlest.Optimizer.plan))
      max_int ranked
  in
  Report.note "chosen plan actual cost %d vs true optimum %d" best_actual optimal;

  Report.section "Ablation: plan choice quality across a twig workload";
  let workload =
    [
      ("staff", Data.staff (), "//manager//department//employee");
      ("staff", Data.staff (), "//manager[.//employee][.//email]");
      ("staff", Data.staff (), "//department[.//name][.//email]");
      ("staff", Data.staff (), "//manager//department[.//employee]//email");
      ("dblp", Data.dblp (), "//article[.//author][.//cdrom]");
      ("dblp", Data.dblp (), "//book[.//author][.//cite]");
      ("dblp", Data.dblp (), "//inproceedings[.//cite][.//url]");
    ]
  in
  let rows =
    List.map
      (fun (ds, doc, query) ->
        let pattern = Xmlest.Pattern_parser.pattern_exn query in
        let preds = Xmlest.Pattern.predicates pattern in
        let summary = Xmlest.Summary.build ~grid_size:10 ~with_levels:false doc preds in
        let ranked = Xmlest.Optimizer.rank (Xmlest.Summary.catalog summary) pattern in
        let actuals =
          List.map
            (fun c -> Xmlest.Optimizer.actual_cost doc pattern c.Xmlest.Optimizer.plan)
            ranked
        in
        let chosen =
          match actuals with
          | c :: _ -> c
          | [] -> failwith "plan bench: query has no join plans"
        in
        let best_possible = List.fold_left Int.min max_int actuals in
        let worst = List.fold_left Int.max 0 actuals in
        [
          ds; query;
          string_of_int chosen;
          string_of_int best_possible;
          string_of_int worst;
          Printf.sprintf "%.2f"
            (float_of_int chosen /. float_of_int (Int.max 1 best_possible));
        ])
      workload
  in
  Report.table
    ([ "data"; "query"; "chosen cost"; "optimal"; "worst"; "chosen/optimal" ]
    :: rows)

(* ------------------------------------------------------------------ *)
(* Theorems 1 and 2: storage growth                                    *)
(* ------------------------------------------------------------------ *)

let theorems () =
  Report.section "Theorem 1: non-zero position-histogram cells are O(g)";
  let doc = Data.dblp () in
  let sizes = [ 10; 20; 40; 80; 160 ] in
  let rows =
    List.map
      (fun pred ->
        Xmlest.Predicate.name pred
        :: List.map
             (fun size ->
               let grid =
                 Xmlest.Grid.create ~size ~max_pos:(Xmlest.Document.max_pos doc)
               in
               let h = Xmlest.Position_histogram.build doc ~grid pred in
               let cells = Xmlest.Position_histogram.nonzero_cells h in
               Printf.sprintf "%d (%.1fg)" cells
                 (float_of_int cells /. float_of_int size))
             sizes)
      [ tagp "author"; tagp "cite"; tagp "article" ]
  in
  Report.table
    (("predicate" :: List.map (fun s -> "g=" ^ string_of_int s) sizes) :: rows);

  Report.section "Theorem 2: partial coverage entries are O(g)";
  let rows =
    List.map
      (fun pred ->
        Xmlest.Predicate.name pred
        :: List.map
             (fun size ->
               let grid =
                 Xmlest.Grid.create ~size ~max_pos:(Xmlest.Document.max_pos doc)
               in
               let c = Xmlest.Coverage_histogram.build doc ~grid pred in
               let partial = Xmlest.Coverage_histogram.partial_entries c in
               Printf.sprintf "%d (%.1fg)" partial
                 (float_of_int partial /. float_of_int size))
             sizes)
      [ tagp "article"; tagp "cdrom" ]
  in
  Report.table
    (("predicate" :: List.map (fun s -> "g=" ^ string_of_int s) sizes) :: rows)

(* ------------------------------------------------------------------ *)
(* Accuracy sweep: error distribution over many random tag pairs       *)
(* ------------------------------------------------------------------ *)

let accuracy () =
  Report.section
    "Accuracy sweep: error distribution over random ancestor/descendant tag      pairs (all estimators, grid 10)";
  let datasets =
    [
      ("dblp", Data.dblp ()); ("staff", Data.staff ()); ("xmark", Data.xmark ());
      ("treebank", Data.treebank ());
    ]
  in
  let rows =
    List.map
      (fun (name, doc) ->
        let tags = Xmlest.Document.distinct_tags doc in
        let summary =
          Xmlest.Summary.build ~grid_size:10 ~with_levels:false doc
            (List.map tagp tags)
        in
        (* all ordered tag pairs with a non-empty true answer *)
        let samples = ref [] in
        List.iter
          (fun a ->
            List.iter
              (fun d ->
                if not (String.equal a d) then begin
                  let real = Data.real_pair doc (tagp a) (tagp d) in
                  if real > 0 then samples := (a, d, real) :: !samples
                end)
              tags)
          tags;
        let log_errors estimator =
          List.filter_map
            (fun (a, d, real) ->
              let est = estimator a d in
              if est <= 0.0 then None
              else Some (Float.abs (log (est /. float_of_int real))))
            !samples
        in
        let geo_mean errs =
          if errs = [] then nan
          else
            exp (List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs))
        in
        let within_2x errs =
          let hits = List.length (List.filter (fun e -> e <= log 2.0) errs) in
          100.0 *. float_of_int hits /. float_of_int (Int.max 1 (List.length errs))
        in
        let naive a d =
          Xmlest.Summary.node_count summary (tagp a)
          *. Xmlest.Summary.node_count summary (tagp d)
        in
        let ph a d =
          Xmlest.Summary.estimate ~options:overlap_options summary
            (pair_pattern (tagp a) (tagp d))
        in
        let full a d =
          Xmlest.Summary.estimate summary (pair_pattern (tagp a) (tagp d))
        in
        let en = log_errors naive and ep = log_errors ph and ef = log_errors full in
        [
          name;
          string_of_int (List.length !samples);
          Printf.sprintf "%.1fx / %.0f%%" (geo_mean en) (within_2x en);
          Printf.sprintf "%.1fx / %.0f%%" (geo_mean ep) (within_2x ep);
          Printf.sprintf "%.1fx / %.0f%%" (geo_mean ef) (within_2x ef);
        ])
      datasets
  in
  Report.table
    ([
       "data"; "pairs"; "naive (geo-err/<=2x)"; "pH-join (geo-err/<=2x)";
       "full (geo-err/<=2x)";
     ]
    :: rows);
  Report.note
    "geo-err = geometric mean of |est/real| ratio error; <=2x = share of      pairs within a factor of two"

(* ------------------------------------------------------------------ *)
(* Other data sets ("results substantially similar", Sec. 5.1)        *)
(* ------------------------------------------------------------------ *)

let datasets () =
  Report.section
    "Other data sets: XMark- and Shakespeare-shaped corpora (Sec. 5.1 claims      results are substantially similar)";
  let cases =
    [
      ("xmark", Data.xmark (), "//item//text");
      ("xmark", Data.xmark (), "//open_auction//bidder");
      ("xmark", Data.xmark (), "//parlist//text");
      ("xmark", Data.xmark (), "//person[.//profile]//watch");
      ("shakespeare", Data.shakespeare (), "//ACT//SPEECH");
      ("shakespeare", Data.shakespeare (), "//SPEECH//LINE");
      ("shakespeare", Data.shakespeare (), "//SCENE[.//STAGEDIR]//SPEAKER");
      ("treebank", Data.treebank (), "//S//NP");
      ("treebank", Data.treebank (), "//VP//PP//NN");
      ("treebank", Data.treebank (), "//SBAR//S[.//PP]");
    ]
  in
  let rows =
    List.map
      (fun (ds, doc, query) ->
        let pattern = Xmlest.Pattern_parser.pattern_exn query in
        let preds = Xmlest.Pattern.predicates pattern in
        let summary = Xmlest.Summary.build ~grid_size:10 ~with_levels:false doc preds in
        let est = Xmlest.Summary.estimate summary pattern in
        let est_ovl = Xmlest.Summary.estimate ~options:overlap_options summary pattern in
        let real = float_of_int (Xmlest.Twig_count.count doc pattern) in
        [
          ds; query; Report.f1 est_ovl; Report.f1 est; Report.f0 real;
          Report.ratio est real;
        ])
      cases
  in
  Report.table
    ([ "data"; "query"; "overlap-est"; "no-ovl-est"; "real"; "novl/real" ] :: rows)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig11", fig11);
    ("fig12", fig12);
    ("twig", twig);
    ("datasets", datasets);
    ("accuracy", accuracy);
    ("ablation", ablation);
    ("theorems", theorems);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | [] | [ _ ] -> List.map fst sections
    | _exe :: args -> args
  in
  (* every name is checked before any section runs *)
  let found = List.map (fun name -> (name, List.assoc_opt name sections)) requested in
  match List.find_opt (fun (_, f) -> Option.is_none f) found with
  | Some (name, _) ->
    Printf.eprintf "unknown section %S; available: %s\n" name
      (String.concat ", " (List.map fst sections));
    exit 2
  | None -> List.iter (fun (_, f) -> Option.iter (fun f -> f ()) f) found
