(* xmlest: command-line interface to the answer-size estimation library.

   Subcommands:
   - generate:      write one of the synthetic data sets as an XML file
   - stats:         per-tag statistics (count, depth, overlap) of a file
   - build-summary: build histograms over a file and save them to disk
   - estimate:      estimate a twig query (from a file or a saved summary)
   - plan:          rank the left-deep join plans of a query by estimated cost
   - apply-updates: maintain a summary under a document update stream *)

open Xmlest_core
open Cmdliner

let read_document path =
  match Xmlest.Xml_parser.parse_file path with
  | Ok elem -> Xmlest.Document.of_elem elem
  | Error e ->
    Format.eprintf "%a@." Xmlest.Xml_parser.pp_error e;
    exit 1

let parse_anchored q =
  match Xmlest.Pattern_parser.parse q with
  | Ok parsed -> parsed
  | Error msg ->
    Format.eprintf "%s@." msg;
    exit 1

(* The estimators do not model a leading '/': they read it as '//'. *)
let parse_query q = (parse_anchored q).Xmlest.Pattern_parser.root

(* --- generate ---------------------------------------------------------- *)

let generate_cmd =
  let dataset =
    let doc = "Data set to generate: dblp, staff, xmark, shakespeare or treebank." in
    let names = List.map (fun n -> (n, n)) Xmlest.Datasets.names in
    Arg.(required & pos 0 (some (enum names)) None & info [] ~docv:"DATASET" ~doc)
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"Size multiplier.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let output =
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file ('-' for stdout).")
  in
  let run dataset scale seed output =
    let elem =
      match Xmlest.Datasets.generate ?seed dataset ~scale with
      | elem -> elem
      | exception Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        exit 1
    in
    if output = "-" then print_string (Xmlest.Xml_writer.to_string elem)
    else begin
      Xmlest.Xml_writer.to_file output elem;
      Printf.printf "wrote %s (%d elements)\n" output (Xmlest.Elem.size elem)
    end
  in
  let info =
    Cmd.info "generate" ~doc:"Generate a synthetic XML data set."
  in
  Cmd.v info Term.(const run $ dataset $ scale $ seed $ output)

(* --- stats ------------------------------------------------------------- *)

let stats_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"XML document to analyze.")
  in
  let run file =
    let doc = read_document file in
    Printf.printf "%s: %d element nodes, max position %d\n\n" file
      (Xmlest.Document.size doc) (Xmlest.Document.max_pos doc);
    Xmlest.Doc_stats.pp_table Format.std_formatter (Xmlest.Doc_stats.tag_stats doc)
  in
  let info = Cmd.info "stats" ~doc:"Per-tag statistics of an XML document." in
  Cmd.v info Term.(const run $ file)

(* --- build-summary ------------------------------------------------------ *)

let grid_arg =
  Arg.(value & opt int 10 & info [ "grid" ] ~docv:"G"
         ~doc:"Histogram grid size (the paper uses 10).")

let equidepth_arg =
  Arg.(value & flag & info [ "equidepth" ]
         ~doc:"Place bucket boundaries at quantiles of the summarized \
               predicates' positions instead of uniformly.")

let content_arg =
  Arg.(value & flag & info [ "content-predicates" ]
         ~doc:"Also build histograms for frequent element-content values \
               and prefixes (Sec. 3.4's end-biased predicate selection).")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D"
         ~doc:"Build the summary on D OCaml domains, each sweeping the \
               document for its own share of the predicates; the result \
               is bit-identical to the sequential build.  0 means the \
               runtime's recommended domain count.")

let resolve_domains d =
  if d = 0 then Xmlest.Domain_pool.recommended_domains ()
  else if d < 0 then begin
    Printf.eprintf "--domains must be >= 0\n";
    exit 1
  end
  else d

(* Every in-memory build goes through here, so a bad --grid exits 1 with
   the library's message. *)
let build_summary ?(domains = 1) ?with_levels doc ~grid ~equidepth ~content preds =
  let preds = if content then Xmlest.Advisor.suggest doc else preds in
  let grid_kind = if equidepth then `Equidepth else `Uniform in
  try Xmlest.Summary.build ~grid_size:grid ~grid_kind ~domains ?with_levels doc preds
  with Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

(* Streamed predicate discovery: one SAX pass over the file collecting
   the distinct element tags, so the out-of-core build never needs the
   materialized document that [Predicate.tag_predicates] reads. *)
let streamed_tag_predicates file =
  let ic = open_in file in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let sax = Xmlest.Sax.of_channel ic in
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  (try
     Xmlest.Sax.fold
       (fun () ev ->
         match ev with
         | Xmlest.Sax.Open { tag; _ } ->
           if not (Hashtbl.mem seen tag) then begin
             Hashtbl.add seen tag ();
             order := tag :: !order
           end
         | Xmlest.Sax.Text _ | Xmlest.Sax.Close -> ())
       () sax
   with Xmlest.Xml_parser.Parse_error e ->
     Format.eprintf "%a@." Xmlest.Xml_parser.pp_error e;
     exit 1);
  List.rev_map Xmlest.Predicate.tag !order

let build_summary_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"XML document.")
  in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Where to write the summary, as a binary store (.xsum) \
                 that estimate --store opens.")
  in
  let stream =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Build out-of-core: parse FILE as a SAX event stream and \
                 never materialize the document, so memory stays \
                 O(element depth + summary size).  Bit-identical to the \
                 in-memory build.  Incompatible with --content-predicates \
                 and --domains > 1.")
  in
  let run file grid equidepth content domains output stream =
    let summary =
      if stream then begin
        if content then begin
          Printf.eprintf
            "--stream is incompatible with --content-predicates (the \
             advisor scans the materialized document)\n";
          exit 1
        end;
        if domains <> 1 && resolve_domains domains <> 1 then begin
          Printf.eprintf "--stream builds sequentially; drop --domains\n";
          exit 1
        end;
        let preds = streamed_tag_predicates file in
        let grid_kind = if equidepth then `Equidepth else `Uniform in
        try Xmlest.Summary.build_stream_file ~grid_size:grid ~grid_kind file preds
        with
        | Invalid_argument msg | Failure msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
        | Xmlest.Xml_parser.Parse_error e ->
          Format.eprintf "%a@." Xmlest.Xml_parser.pp_error e;
          exit 1
      end
      else begin
        let doc = read_document file in
        let domains = resolve_domains domains in
        build_summary ~domains doc ~grid ~equidepth ~content
          (Xmlest.Predicate.tag_predicates doc)
      end
    in
    Xmlest.Summary.save_store summary output;
    Printf.printf "wrote %s: %d predicates, %d bytes of histograms (file %d bytes)\n"
      output
      (List.length (Xmlest.Summary.predicates summary))
      (Xmlest.Summary.storage_bytes summary)
      (try (Unix.stat output).Unix.st_size with Unix.Unix_error _ -> 0)
  in
  let info =
    Cmd.info "build-summary"
      ~doc:"Build position/coverage histograms over a document and save them."
  in
  Cmd.v info
    Term.(const run $ file $ grid_arg $ equidepth_arg $ content_arg
          $ domains_arg $ output $ stream)

(* --- estimate ---------------------------------------------------------- *)

let estimate_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"XML document, or a saved summary with --store.")
  in
  let from_store =
    Arg.(value & flag & info [ "store" ]
           ~doc:"Treat FILE as a summary saved by build-summary or \
                 apply-updates (a .xsum store) instead of an XML document.  \
                 Opening reads the store's section table only; a \
                 predicate's histograms are decoded when the query first \
                 needs them.  No document access, so --exact is \
                 unavailable.")
  in
  let query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Twig query, e.g. '//article//author' or \
                 '//faculty[.//TA][.//RA]'.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ]
           ~doc:"Also compute the exact answer size and the ratio.  The \
                 exact count honours a leading '/' (the pattern root is \
                 the document element); the estimate does not model the \
                 anchor and reads '/a' as '//a'.")
  in
  let no_coverage =
    Arg.(value & flag & info [ "no-coverage" ]
           ~doc:"Disable the no-overlap (coverage histogram) estimator; use \
                 only the primitive pH-join.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Print the join-by-join estimation trace.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Run static analysis on the query (contradictory \
                 conjunctions, impossible levels, tags outside the \
                 document) and print the diagnostics before estimating.")
  in
  let estimate file from_store query grid equidepth domains exact no_coverage
      explain check =
    if exact && from_store then begin
      Printf.eprintf "--exact requires the XML document, not a summary\n";
      exit 1
    end;
    let parsed = parse_anchored query in
    let pattern = parsed.Xmlest.Pattern_parser.root in
    let summary, doc =
      if from_store then begin
        match Xmlest.Summary.load_store file with
        | Ok s -> (s, None)
        | Error e ->
          Printf.eprintf "cannot load summary %s: %s\n" file e;
          exit 1
      end
      else begin
        let doc = read_document file in
        ( build_summary
            ~domains:(resolve_domains domains)
            doc ~grid ~equidepth ~content:false (Xmlest.Predicate.tag_predicates doc),
          Some doc )
      end
    in
    let options =
      { Xmlest.Twig_estimator.default_options with use_no_overlap = not no_coverage }
    in
    let est, diags = Xmlest.Summary.estimate_checked ~options summary pattern in
    if check then
      List.iter
        (fun d -> Printf.printf "check: %s\n" (Xmlest.Pattern_check.to_string [ d ]))
        diags;
    if Xmlest.Pattern_check.unsatisfiable diags then
      Printf.printf "estimate: %.1f (static analysis proves the pattern \
                     unsatisfiable%s)\n"
        est
        (if check then "" else "; rerun with --check for details")
    else Printf.printf "estimate: %.1f\n" est;
    if explain then begin
      let _, steps = Xmlest.Summary.explain ~options summary pattern in
      List.iter
        (fun s ->
          Printf.printf "  %-45s %-16s ~%.1f\n"
            s.Xmlest.Twig_estimator.subtwig s.Xmlest.Twig_estimator.method_used
            s.Xmlest.Twig_estimator.estimate)
        steps
    end;
    (* A store reports its file size: summing its histograms would adopt,
       and so validate, every section the query never named. *)
    if from_store then
      Printf.printf "summary storage: %d bytes on disk (grid %d)\n"
        (try (Unix.stat file).Unix.st_size with Unix.Unix_error _ -> 0)
        (Xmlest.Summary.grid summary).Xmlest.Grid.size
    else
      Printf.printf "summary storage: %d bytes (grid %d)\n"
        (Xmlest.Summary.storage_bytes summary)
        (Xmlest.Summary.grid summary).Xmlest.Grid.size;
    match (exact, doc) with
    | true, Some doc ->
      let real = Xmlest.Twig_count.count_query doc parsed in
      Printf.printf "exact:    %d\n" real;
      if real > 0 then Printf.printf "ratio:    %.3f\n" (est /. float_of_int real)
    | true, None | false, _ -> ()
  in
  let run file from_store query grid equidepth domains exact no_coverage
      explain check =
    (* a store's sections are validated when first used *)
    try
      estimate file from_store query grid equidepth domains exact no_coverage
        explain check
    with Xmlest.Summary.Corrupt_store msg ->
      Printf.eprintf "corrupt summary store %s: %s\n" file msg;
      exit 1
  in
  let info =
    Cmd.info "estimate"
      ~doc:"Estimate the answer size of a twig query over an XML document \
            or a saved summary."
  in
  Cmd.v info
    Term.(const run $ file $ from_store $ query $ grid_arg $ equidepth_arg
          $ domains_arg $ exact $ no_coverage $ explain $ check)

(* --- plan -------------------------------------------------------------- *)

(* A pattern past the optimizer's node limit is a usage error. *)
let optimize f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

let plan_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"XML document.")
  in
  let query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:(Printf.sprintf "Twig query with 2 to %d nodes."
                   Xmlest.Optimizer.max_nodes))
  in
  let actual =
    Arg.(value & flag & info [ "actual" ]
           ~doc:"Also evaluate the true cost of every plan (slow on large \
                 documents).")
  in
  let run file query grid actual =
    let doc = read_document file in
    let pattern = parse_query query in
    if Xmlest.Pattern.edge_count pattern = 0 then begin
      Printf.eprintf "query has no join plans: a single-node pattern\n";
      exit 1
    end;
    let summary =
      build_summary doc ~grid ~equidepth:false ~content:false
        (Xmlest.Predicate.tag_predicates doc)
    in
    let orders, listed =
      optimize (fun () -> Xmlest.Optimizer.listing (Xmlest.Summary.catalog summary) pattern)
    in
    Printf.printf "%-24s %14s%s\n" "plan (node order)" "est. cost"
      (if actual then "    actual cost" else "");
    List.iter
      (fun c ->
        Printf.printf "%-24s %14.1f%s\n"
          (Format.asprintf "%a" Xmlest.Plan.pp c.Xmlest.Optimizer.plan)
          c.Xmlest.Optimizer.cost
          (if actual then
             Printf.sprintf "    %d"
               (Xmlest.Optimizer.actual_cost doc pattern c.Xmlest.Optimizer.plan)
           else ""))
      listed;
    if orders > List.length listed then
      Printf.printf "%d orders; only the cheapest is listed\n" orders
  in
  let info =
    Cmd.info "plan" ~doc:"Rank join plans of a twig query by estimated cost."
  in
  Cmd.v info Term.(const run $ file $ query $ grid_arg $ actual)

(* --- query --------------------------------------------------------------- *)

let query_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"XML document.")
  in
  let query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Twig query to evaluate.")
  in
  let limit =
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N"
           ~doc:"Print at most N matches (0 = count only).")
  in
  let run file query grid limit =
    if limit < 0 then begin
      Printf.eprintf "--limit must be >= 0\n";
      exit 1
    end;
    let doc = read_document file in
    let query = parse_anchored query in
    let pattern = query.Xmlest.Pattern_parser.root in
    (* Pick the join order with the optimizer when there is a choice. *)
    let order =
      if Xmlest.Pattern.edge_count pattern = 0 then [ 0 ]
      else begin
        let summary =
          build_summary ~with_levels:false doc ~grid ~equidepth:false ~content:false
            (Xmlest.Predicate.tag_predicates doc)
        in
        (optimize (fun () -> Xmlest.Optimizer.best (Xmlest.Summary.catalog summary) pattern))
          .Xmlest.Optimizer.plan
          .Xmlest.Plan.order
      end
    in
    let result = Xmlest.Executor.run doc pattern ~order in
    let rows = Xmlest.Executor.anchored_rows query.Xmlest.Pattern_parser.anchor result in
    let total = List.length rows in
    Printf.printf "%d matches (plan %s)\n" total
      (String.concat ";" (List.map string_of_int order));
    if limit > 0 then begin
      let shown = ref 0 in
      List.iter
        (fun row ->
          if !shown < limit then begin
            incr shown;
            let cells =
              List.map2
                (fun col node ->
                  Printf.sprintf "%s=%s@%d"
                    (Xmlest.Predicate.name (Xmlest.Plan.node_predicate pattern col))
                    (Xmlest.Document.tag doc node)
                    (Xmlest.Document.start_pos doc node))
                result.Xmlest.Executor.columns (Array.to_list row)
            in
            Printf.printf "  %s\n" (String.concat "  " cells)
          end)
        rows;
      if total > limit then Printf.printf "  ... %d more\n" (total - limit)
    end
  in
  let info =
    Cmd.info "query"
      ~doc:"Evaluate a twig query: pick a plan by estimated cost and \
            materialize the matches."
  in
  Cmd.v info Term.(const run $ file $ query $ grid_arg $ limit)

(* --- apply-updates ------------------------------------------------------ *)

let policy_conv =
  let parse s =
    match s with
    | "never" -> Ok `Never
    | "always" -> Ok `Always
    | s -> Error (`Msg (Printf.sprintf "bad policy %S (expected never or always)" s))
  in
  Arg.conv (parse, Xmlest.Staleness.pp_policy)

(* One update per line; blank lines and '#' comments are skipped. *)
let read_updates path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line ->
      let t = String.trim line in
      if t = "" || t.[0] = '#' then go (lineno + 1) acc
      else begin
        match Xmlest.Update.parse t with
        | Ok u -> go (lineno + 1) (u :: acc)
        | Error e ->
          Printf.eprintf "%s:%d: %s\n" path lineno e;
          exit 1
      end
  in
  go 1 []

let apply_updates_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"XML document.")
  in
  let updates_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"UPDATES"
           ~doc:"Update stream, one operation per line: 'insert <parent> \
                 <index> <xml>', 'delete <node>', 'replace-text <node> \
                 <text>' or 'replace-attrs <node> k=v ...'.  Nodes are \
                 pre-order indices into the document as edited so far; \
                 blank lines and '#' comments are skipped.")
  in
  let policy =
    Arg.(value & opt policy_conv `Never & info [ "policy" ] ~docv:"P"
           ~doc:"Rebuild policy: 'never' (keep maintaining; the default, \
                 since every edit is maintained exactly) or 'always' \
                 (rebuild after the batch).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Write the maintained summary to OUT as a .xsum store.")
  in
  let query =
    Arg.(value & opt (some string) None & info [ "estimate" ] ~docv:"QUERY"
           ~doc:"Estimate QUERY over the maintained summary afterwards.")
  in
  let run file updates_file grid equidepth domains policy output query =
    let doc = read_document file in
    let summary =
      build_summary
        ~domains:(resolve_domains domains)
        doc ~grid ~equidepth ~content:false (Xmlest.Predicate.tag_predicates doc)
    in
    let ups = read_updates updates_file in
    (try Xmlest.Summary.apply ~policy summary ups with
    | Invalid_argument msg | Failure msg ->
      Printf.eprintf "%s\n" msg;
      exit 1);
    let size' =
      match Xmlest.Summary.document summary with
      | Some d -> Xmlest.Document.size d
      | None -> 0
    in
    Printf.printf "applied %d update%s: %d -> %d element nodes\n"
      (List.length ups)
      (if List.length ups = 1 then "" else "s")
      (Xmlest.Document.size doc) size';
    (match Xmlest.Summary.staleness summary with
    | None ->
      print_endline "summary rebuilt in place (policy always)"
    | Some r -> Format.printf "%a@." Xmlest.Staleness.pp_report r);
    (match query with
    | Some q ->
      Printf.printf "estimate: %.1f\n"
        (Xmlest.Summary.estimate summary (parse_query q))
    | None -> ());
    match output with
    | Some out ->
      Xmlest.Summary.save_store summary out;
      Printf.printf "wrote %s\n" out
    | None -> ()
  in
  let info =
    Cmd.info "apply-updates"
      ~doc:"Apply a document update stream to a summary incrementally: \
            deletes, inserts and text/attribute replacements maintain the \
            histograms exactly, bit-identical to a rebuild of the edited \
            document on the same grid."
  in
  Cmd.v info
    Term.(const run $ file $ updates_file $ grid_arg $ equidepth_arg
          $ domains_arg $ policy $ output $ query)

(* --- shell ----------------------------------------------------------------- *)

let shell_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Optional XML document to load on startup.")
  in
  let run file =
    let state = Xmlest.Repl.create () in
    (match file with
    | Some path -> print_endline (Xmlest.Repl.execute state ("load " ^ path))
    | None -> ());
    print_endline "xmlest shell; 'help' lists commands, ctrl-D quits";
    let rec loop () =
      print_string "xmlest> ";
      match read_line () with
      | exception End_of_file -> print_newline ()
      | "quit" | "exit" -> ()
      | line ->
        let out = Xmlest.Repl.execute state line in
        if out <> "" then print_endline out;
        loop ()
    in
    loop ()
  in
  let info = Cmd.info "shell" ~doc:"Interactive console over the library." in
  Cmd.v info Term.(const run $ file)

(* ----------------------------------------------------------------------- *)

let main_cmd =
  let doc = "XML answer-size estimation with position histograms (EDBT 2002)" in
  let info = Cmd.info "xmlest" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ generate_cmd; stats_cmd; build_summary_cmd; estimate_cmd; plan_cmd;
      query_cmd; apply_updates_cmd; shell_cmd ]

(* One I/O error path: an unreadable input or an unwritable output is
   exit 1 with the system's message, as any other bad argument is.  Any
   other exception is a bug, reported as cmdliner's own handler does. *)
let () =
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Sys_error msg ->
    Printf.eprintf "xmlest: %s\n" msg;
    exit 1
  | exception e ->
    Printf.eprintf "xmlest: internal error, uncaught exception:\n%s\n" (Printexc.to_string e);
    exit Cmd.Exit.internal_error
