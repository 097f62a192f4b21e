(* Every metric the benchmark reports, with its unit.  [exact] marks the
   metrics that a given seed determines completely: [compare] flags any
   difference in them, where it allows timings their bound. *)

type t = { name : string; unit : string; exact : bool }

let m ?(exact = false) name unit = { name; unit; exact }

(* Reported by the untraced run of every workload. *)
let end_to_end =
  [
    m "latency_ms" "ms";
    m "setup_s" "s";
    m "peak_heap_mb" "MB";
    m ~exact:true "qerror_p50" "ratio";
    m ~exact:true "store_kb" "KiB";
  ]

(* Reported by the traced run of every workload.  The probes (Probes.run)
   come first, then the counters of the traced request loop, then the
   trace's own numbers. *)
let per_layer =
  [
    m "xmldb.parse_ms" "ms";
    m "xmldb.sax_ms" "ms";
    m "xmldb.label_ms" "ms";
    m "query.dispatch_ms" "ms";
    m ~exact:true "query.dispatch_evals" "count";
    m "query.parse_us" "us";
    m "query.check_us" "us";
    m "summary.build_ms" "ms";
    m "summary.stream_self_ms" "ms";
    m ~exact:true "summary.passes" "count";
    m ~exact:true "summary.predicate_evals" "count";
    m "summary.estimate_us" "us";
    m "store.write_ms" "ms";
    m "store.open_us" "us";
    m "ph_join.coef_us" "us";
    m "ph_join.join_us" "us";
    m "no_overlap.join_us" "us";
    m ~exact:true "estimate.joins_per_req" "count";
    m ~exact:true "estimate.coverage_share" "ratio";
    m "optimizer.best_us" "us";
    m ~exact:true "optimizer.plans_per_req" "count";
    m "maintain.append_ms" "ms";
    m "maintain.delete_ms" "ms";
    m "maintain.replace_ms" "ms";
    m "maintain.interior_ms" "ms";
    m "parallel.build_d2_ms" "ms";
    m "parallel.batch_d1_ms" "ms";
    m "parallel.batch_d2_ms" "ms";
    m "catalog.hits_per_req" "1/req";
    m "catalog.misses_per_req" "1/req";
    m "catalog.recomputes_per_req" "1/req";
    m "catalog.hit_pct" "%";
    m "maintain.rebuild_pct" "%";
    m "gc.alloc_kb_per_req" "KiB";
    m "trace.overhead_pct" "%";
    m "trace.cover_pct" "%";
    m "trace.spans_per_req" "1/req";
  ]

let find name =
  List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)
