(** Single entry point re-exporting the public surface of the library
    (see {!Xmlest} for the module map and a usage example). *)

(* XML substrate *)
module Elem = Xmlest_xmldb.Elem
module Xml_parser = Xmlest_xmldb.Xml_parser
module Xml_writer = Xmlest_xmldb.Xml_writer
module Document = Xmlest_xmldb.Document
module Interval_ops = Xmlest_xmldb.Interval_ops
module Doc_stats = Xmlest_xmldb.Doc_stats
module Sax = Xmlest_xmldb.Sax

(* Data generators *)
module Splitmix = Xmlest_datagen.Splitmix
module Distributions = Xmlest_datagen.Distributions
module Dtd = Xmlest_datagen.Dtd
module Dtd_parser = Xmlest_datagen.Dtd_parser
module Dtd_gen = Xmlest_datagen.Dtd_gen
module Dblp_gen = Xmlest_datagen.Dblp_gen
module Staff_gen = Xmlest_datagen.Staff_gen
module Xmark_gen = Xmlest_datagen.Xmark_gen
module Shakespeare_gen = Xmlest_datagen.Shakespeare_gen
module Treebank_gen = Xmlest_datagen.Treebank_gen
module Datasets = Xmlest_datagen.Datasets

(* Queries *)
module Predicate = Xmlest_query.Predicate
module Pattern = Xmlest_query.Pattern
module Pattern_parser = Xmlest_query.Pattern_parser
module Pattern_check = Xmlest_query.Pattern_check

(* Histograms *)
module Grid = Xmlest_histogram.Grid
module Hist_catalog = Xmlest_histogram.Catalog
module Position_histogram = Xmlest_histogram.Position_histogram
module Coverage_histogram = Xmlest_histogram.Coverage_histogram
module Level_histogram = Xmlest_histogram.Level_histogram
module Level_position_histogram = Xmlest_histogram.Level_position_histogram

(* Estimators *)
module Ph_join = Xmlest_estimate.Ph_join
module No_overlap = Xmlest_estimate.No_overlap
module Child_join = Xmlest_estimate.Child_join
module Order_join = Xmlest_estimate.Order_join
module Compound = Xmlest_estimate.Compound
module Twig_estimator = Xmlest_estimate.Twig_estimator
module Baselines = Xmlest_estimate.Baselines

(* Exact engine *)
module Structural_join = Xmlest_engine.Structural_join
module Twig_count = Xmlest_engine.Twig_count
module Executor = Xmlest_engine.Executor

(* Optimizer *)
module Plan = Xmlest_optimizer.Plan
module Optimizer = Xmlest_optimizer.Optimizer

(* Maintenance *)
module Update = Xmlest_maintain.Update
module Staleness = Xmlest_maintain.Staleness

(* Parallel substrate *)
module Domain_pool = Xmlest_parallel.Pool

(* Catalog *)
module Store = Store
module Summary = Summary
module Advisor = Advisor
module Repl = Repl
