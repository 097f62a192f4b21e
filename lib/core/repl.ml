open Xmlest_xmldb
open Xmlest_query
open Xmlest_engine
open Xmlest_optimizer

type state = {
  mutable doc : Document.t option;
  mutable summary : Summary.t option;
  mutable domains : int;
      (* domain count for 'summarize' builds; 1 = sequential sweep *)
}

let create () = { doc = None; summary = None; domains = 1 }

let help =
  String.concat "\n"
    [
      "commands:";
      "  gen <dblp|staff|xmark|shakespeare|treebank> [scale]   generate a data set";
      "  load <file.xml>                load an XML document";
      "  stats                          per-tag statistics of the document";
      "  summarize [grid] [equidepth]   build histograms (default grid 10)";
      "  set domains <n>                build summaries on n OCaml domains,";
      "                                 each sweeping for its share of the";
      "                                 predicates (0 = recommended count;";
      "                                 bit-identical to the sequential build)";
      "  estimate <query>               estimate a twig query's answer size";
      "                                 (a leading '/' is estimated as '//')";
      "  check <query>                  static analysis of a query against the summary";
      "  explain <query>                estimate with a join-by-join trace";
      "  exact <query>                  exact answer size (counting engine;";
      "                                 a leading '/' matches the root only)";
      "  plan <query>                   rank join orders by estimated cost";
      "  run <query> [limit]            execute the best plan, show matches";
      "  hist <tag>                     ASCII heatmap of a tag's position histogram";
      "  update <op line>               apply a document update and maintain the summary";
      "                                 (insert <parent> <idx> <xml> | delete <node> |";
      "                                  replace-text <node> <text> | replace-attrs <node> k=v ...)";
      "  staleness                      updates and nodes maintained since the last (re)build";
      "  summary info                   grid, predicates, build and staleness counters";
      "  save-summary <file>            write the summary as a .xsum store";
      "  load-summary <file>            open a .xsum store";
      "  catalog stats                  histogram-catalog cache counters";
      "  catalog reset                  zero the cache counters";
      "  help                           this text";
      "";
      "commands may be prefixed with ':' (e.g. ':catalog stats')";
    ]

(* All commands funnel through these accessors so missing-state errors are
   uniform. *)
exception Reply of string

let reply fmt = Printf.ksprintf (fun s -> raise (Reply s)) fmt

let need_doc state =
  match state.doc with
  | Some doc -> doc
  | None -> reply "error: no document loaded (use 'gen' or 'load')"

let need_summary state =
  match state.summary with
  | Some s -> s
  | None -> reply "error: no summary built (use 'summarize' or 'load-summary')"

let parse_query q =
  match Pattern_parser.parse q with
  | Ok parsed -> parsed
  | Error msg -> reply "error: %s" msg

(* The estimators do not model a leading '/': they read it as '//'. *)
let parse_pattern q = (parse_query q).Pattern_parser.root

let set_document state doc =
  state.doc <- Some doc;
  state.summary <- None;
  Printf.sprintf "document: %d element nodes, %d distinct tags"
    (Document.size doc)
    (List.length (Document.distinct_tags doc))

let cmd_gen state dataset scale =
  set_document state
    (Document.of_elem (Xmlest_datagen.Datasets.generate dataset ~scale))

(* A system error naming [path], which only a failed open names already. *)
let io_error path msg =
  let named = String.starts_with ~prefix:(path ^ ": ") msg in
  reply "error: %s" (if named then msg else path ^ ": " ^ msg)

let cmd_load state path =
  match Xml_parser.parse_file path with
  | Ok elem -> set_document state (Document.of_elem elem)
  | Error e -> reply "error: %s" (Format.asprintf "%a" Xml_parser.pp_error e)
  | exception Sys_error msg -> io_error path msg

let cmd_stats state =
  let doc = need_doc state in
  Format.asprintf "%a" Doc_stats.pp_table (Doc_stats.tag_stats doc)

let cmd_summarize state args =
  let doc = need_doc state in
  let grid_size =
    match List.find_opt (fun a -> a <> "equidepth") args with
    | Some g -> ( try int_of_string g with Failure _ -> reply "error: bad grid size %S" g)
    | None -> 10
  in
  let grid_kind = if List.mem "equidepth" args then `Equidepth else `Uniform in
  let summary =
    Summary.build ~grid_size ~grid_kind ~domains:state.domains doc
      (Predicate.tag_predicates doc)
  in
  state.summary <- Some summary;
  Printf.sprintf "summary: %d predicates, %d bytes (grid %d%s%s)"
    (List.length (Summary.predicates summary))
    (Summary.storage_bytes summary)
    grid_size
    (if grid_kind = `Equidepth then ", equi-depth" else "")
    (if state.domains > 1 then Printf.sprintf ", %d domains" state.domains
     else "")

let cmd_set_domains state arg =
  match int_of_string_opt arg with
  | Some 0 ->
    state.domains <- Xmlest_parallel.Pool.recommended_domains ();
    Printf.sprintf "domains: %d (recommended)" state.domains
  | Some d when d >= 1 ->
    state.domains <- d;
    Printf.sprintf "domains: %d" d
  | Some _ | None -> reply "error: bad domain count %S" arg

let cmd_estimate state q =
  let summary = need_summary state in
  let pattern = parse_pattern q in
  let est, diags = Summary.estimate_checked summary pattern in
  if Pattern_check.unsatisfiable diags then
    Printf.sprintf "~%.1f matches (unsatisfiable pattern)\n%s" est
      (Pattern_check.to_string diags)
  else Printf.sprintf "~%.1f matches" est

let cmd_check state q =
  let summary = need_summary state in
  let pattern = parse_pattern q in
  match Summary.check summary pattern with
  | [] -> "no issues found"
  | diags -> Pattern_check.to_string diags

let cmd_explain state q =
  let summary = need_summary state in
  let pattern = parse_pattern q in
  let total, steps = Summary.explain summary pattern in
  let lines =
    List.map
      (fun s ->
        Printf.sprintf "  %-45s %-16s ~%.1f"
          s.Xmlest_estimate.Twig_estimator.subtwig
          s.Xmlest_estimate.Twig_estimator.method_used
          s.Xmlest_estimate.Twig_estimator.estimate)
      steps
  in
  String.concat "\n"
    ((Printf.sprintf "~%.1f matches; joins:" total :: lines)
    @ if steps = [] then [ "  (single-node pattern: histogram total)" ] else [])

let cmd_exact state q =
  let doc = need_doc state in
  Printf.sprintf "%d matches" (Twig_count.count_query doc (parse_query q))

let cmd_plan state q =
  let summary = need_summary state in
  let pattern = parse_pattern q in
  if Pattern.edge_count pattern = 0 then reply "error: single-node pattern has no joins";
  let orders, listed = Optimizer.listing (Summary.catalog summary) pattern in
  let lines =
    List.map
      (fun c ->
        Printf.sprintf "  %-18s est. cost %12.1f"
          (Format.asprintf "%a" Plan.pp c.Optimizer.plan)
          c.Optimizer.cost)
      listed
  in
  String.concat "\n"
    (if orders > List.length listed then
       lines @ [ Printf.sprintf "  %d orders; only the cheapest is listed" orders ]
     else lines)

let cmd_run state q limit =
  let doc = need_doc state in
  let query = parse_query q in
  let pattern = query.Pattern_parser.root in
  let order =
    if Pattern.edge_count pattern = 0 then [ 0 ]
    else begin
      let summary = need_summary state in
      (Optimizer.best (Summary.catalog summary) pattern).Optimizer.plan.Plan.order
    end
  in
  let result = Executor.run doc pattern ~order in
  let rows = Executor.anchored_rows query.Pattern_parser.anchor result in
  let total = List.length rows in
  let shown = Int.min limit total in
  let flat = Pattern.flatten pattern in
  let header = Printf.sprintf "%d matches" total in
  let rows =
    List.filteri (fun k _ -> k < shown) rows
    |> List.map (fun row ->
           "  "
           ^ String.concat " "
               (List.map2
                  (fun col node ->
                    Printf.sprintf "%s@%d"
                      (Predicate.name flat.Pattern.preds.(col))
                      (Document.start_pos doc node))
                  result.Executor.columns (Array.to_list row)))
  in
  String.concat "\n"
    ((header :: rows)
    @ if total > shown then [ Printf.sprintf "  ... %d more" (total - shown) ] else [])

let cmd_hist state tag =
  let summary = need_summary state in
  let h = Summary.histogram summary (Predicate.tag tag) in
  if Float.equal (Xmlest_histogram.Position_histogram.total h) 0.0 then
    reply "error: no nodes with tag %S" tag
  else Format.asprintf "%a" Xmlest_histogram.Position_histogram.pp_heatmap h

let cmd_save_summary state path =
  let summary = need_summary state in
  (try Summary.save_store summary path
   with Sys_error msg -> io_error path msg);
  Printf.sprintf "saved summary to %s" path

let cmd_catalog_stats state =
  let summary = need_summary state in
  Format.asprintf "%a" Xmlest_histogram.Catalog.pp_stats
    (Summary.hist_catalog summary)

let cmd_catalog_reset state =
  let summary = need_summary state in
  Xmlest_histogram.Catalog.reset_counters (Summary.hist_catalog summary);
  "catalog counters reset"

let cmd_update state rest =
  let summary = need_summary state in
  match Summary.Update.parse rest with
  | Error msg -> reply "error: %s" msg
  | Ok u ->
    Summary.apply summary [ u ];
    (* The summary's document advanced; keep the REPL's copy in sync so
       'exact'/'run' answer over the same revision. *)
    state.doc <- Summary.document summary;
    (match Summary.staleness summary with
    | None -> "applied (summary rebuilt in place)"
    | Some r ->
      Printf.sprintf "applied; %d update%s since build, %d nodes touched"
        r.Summary.Staleness.updates_since_build
        (if r.Summary.Staleness.updates_since_build = 1 then "" else "s")
        r.Summary.Staleness.nodes_touched)

let cmd_staleness state =
  let summary = need_summary state in
  match Summary.staleness summary with
  | None -> "no updates applied since the summary was (re)built"
  | Some r -> Format.asprintf "%a" Summary.Staleness.pp_report r

let cmd_summary_info state =
  let summary = need_summary state in
  let module G = Xmlest_histogram.Grid in
  let grid = Summary.grid summary in
  let preds = Summary.predicates summary in
  let pred_names = List.map Predicate.name preds in
  let shown =
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    let head = take 8 pred_names in
    String.concat ", " head
    ^ if List.length pred_names > 8 then ", ..." else ""
  in
  String.concat "\n"
    [
      Printf.sprintf "grid: %dx%d %s, max position %d" grid.G.size grid.G.size
        (if G.is_uniform grid then "uniform" else "equi-depth")
        grid.G.max_pos;
      Printf.sprintf "predicates: %d (%s)" (List.length preds) shown;
      Printf.sprintf "storage: %d bytes" (Summary.storage_bytes summary);
      (match Summary.document summary with
      | Some doc ->
        Printf.sprintf "document: %d element nodes" (Document.size doc)
      | None -> "document: none (summary loaded from disk)");
      (match Summary.stats summary with
      | Some st ->
        Printf.sprintf "built: %s path, %d passes, %d predicate evals, %.4fs"
          (match st.Summary.path with `Fused -> "fused" | `Streamed -> "streamed")
          st.Summary.passes st.Summary.predicate_evals st.Summary.build_time
      | None -> "built: (loaded summary, no construction stats)");
      (match Summary.staleness summary with
      | None -> "staleness: fresh (no updates since build)"
      | Some r ->
        Printf.sprintf
          "staleness: %d update%s, %d nodes touched"
          r.Summary.Staleness.updates_since_build
          (if r.Summary.Staleness.updates_since_build = 1 then "" else "s")
          r.Summary.Staleness.nodes_touched);
    ]

let cmd_load_summary state path =
  match Summary.load_store path with
  | Ok s ->
    (* both adopt every section, so a corrupt one is reported here *)
    let reply =
      Printf.sprintf "summary: %d predicates, %d bytes (from store)"
        (List.length (Summary.predicates s))
        (Summary.storage_bytes s)
    in
    state.summary <- Some s;
    reply
  | Error msg -> reply "error: %s" msg

let split line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let execute state line =
  try
    (* Allow the ':command' spelling common in other REPLs. *)
    let stripped =
      match split line with
      | first :: rest when String.length first > 1 && first.[0] = ':' ->
        String.sub first 1 (String.length first - 1) :: rest
      | ws -> ws
    in
    (* 'update' keeps the rest of the line verbatim: replacement text and
       inline XML may contain spaces. *)
    match stripped with
    | "update" :: _ :: _ ->
      let raw = String.trim line in
      let raw =
        if String.length raw > 1 && raw.[0] = ':' then
          String.sub raw 1 (String.length raw - 1)
        else raw
      in
      let body = String.sub raw 6 (String.length raw - 6) in
      cmd_update state (String.trim body)
    | [] -> ""
    | [ "help" ] -> help
    | [ "gen"; dataset ] -> cmd_gen state dataset 1.0
    | [ "gen"; dataset; scale ] -> (
      match float_of_string_opt scale with
      | Some s -> cmd_gen state dataset s
      | None -> reply "error: bad scale %S" scale)
    | [ "load"; path ] -> cmd_load state path
    | [ "stats" ] -> cmd_stats state
    | "summarize" :: args -> cmd_summarize state args
    | [ "set"; "domains"; d ] -> cmd_set_domains state d
    | [ "set" ] | "set" :: _ -> reply "error: usage: set domains <n>"
    | [ "estimate"; q ] | [ "est"; q ] -> cmd_estimate state q
    | [ "check"; q ] -> cmd_check state q
    | [ "explain"; q ] -> cmd_explain state q
    | [ "exact"; q ] -> cmd_exact state q
    | [ "plan"; q ] -> cmd_plan state q
    | [ "run"; q ] -> cmd_run state q 5
    | [ "run"; q; limit ] -> (
      match int_of_string_opt limit with
      | Some l when l >= 0 -> cmd_run state q l
      | Some _ | None -> reply "error: bad limit %S" limit)
    | [ "hist"; tag ] -> cmd_hist state tag
    | [ "staleness" ] -> cmd_staleness state
    | [ "summary"; "info" ] -> cmd_summary_info state
    | [ "summary" ] | "summary" :: _ -> reply "error: usage: summary info"
    | [ "update" ] -> reply "error: usage: update <insert|delete|replace-text|replace-attrs> ..."
    | [ "save-summary"; path ] -> cmd_save_summary state path
    | [ "load-summary"; path ] -> cmd_load_summary state path
    | [ "catalog"; "stats" ] -> cmd_catalog_stats state
    | [ "catalog"; "reset" ] -> cmd_catalog_reset state
    | [ "catalog" ] | "catalog" :: _ ->
      reply "error: usage: catalog stats|reset"
    | cmd :: _ -> reply "error: unknown command %S (try 'help')" cmd
  with
  | Reply s -> s
  | Failure msg -> "error: " ^ msg
  | Invalid_argument msg -> "error: " ^ msg
  | Summary.Corrupt_store msg -> "error: corrupt summary store: " ^ msg
