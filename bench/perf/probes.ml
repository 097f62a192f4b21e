(* Per-layer probes.

   Each probe calls one layer's public function on the workload's own
   input and reports the median of a few timed calls.  They run in the
   traced run of every workload, including those whose requests never
   reach the layer, so every per-layer metric has a measured value on
   every workload: on [plan] the parse probe parses the Treebank file, on
   [build] the optimizer probe costs the DBLP twigs. *)

open Xmlest_core
module S = Xmlest.Summary
module D = Xmlest.Document
module U = Xmlest.Update

type input = {
  xml_path : string;
  doc : D.t;
  grid_size : int;
  preds : Xmlest.Predicate.t list;
  summary : S.t;  (** built in memory, with its document *)
  store_path : string;
  queries : string array;
  patterns : Xmlest.Pattern.t array;  (** [queries], parsed *)
  scratch : string;  (** a path the probes may overwrite *)
}

let now = Monotonic_clock.now
let elapsed_ns t0 = Int64.to_float (Int64.sub (now ()) t0)

(* Median duration of [reps] calls of [f], in ns. *)
let median_ns reps f =
  Stats.median
    (Array.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         elapsed_ns t0))

(* Median over [rounds] of the mean per-item duration of [f] over
   [items], in ns. *)
let per_item_ns rounds items f =
  let n = float_of_int (Int.max 1 (Array.length items)) in
  Stats.median
    (Array.init rounds (fun _ ->
         let t0 = now () in
         Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
         elapsed_ns t0 /. n))

let parse_file path =
  match Xmlest.Xml_parser.parse_file path with
  | Ok e -> e
  | Error e -> failwith (Format.asprintf "%a" Xmlest.Xml_parser.pp_error e)

let drain_sax path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  Xmlest.Sax.fold (fun n _ -> n + 1) 0 (Xmlest.Sax.of_channel ic)

let ms ns = ns /. 1e6
let us ns = ns /. 1e3

(* The maintenance probes edit a private summary with the [`Never]
   policy, so they time the incremental apply alone; every edit is undone
   by the next one, leaving the document the same size. *)
let maintenance ~reps s subtree =
  let doc () = match S.document s with Some d -> d | None -> failwith "no document" in
  let apply u =
    let t0 = now () in
    S.apply ~policy:`Never s [ u ];
    elapsed_ns t0
  in
  let append = Stats.samples () and delete = Stats.samples () in
  let replace = Stats.samples () and interior = Stats.samples () in
  for _ = 1 to reps do
    let n = D.size (doc ()) in
    Stats.push append (apply (U.Insert { parent = 0; index = max_int; subtree }));
    Stats.push delete (apply (U.Delete { node = n }));
    let leaf = D.size (doc ()) - 1 in
    let text = D.text (doc ()) leaf in
    Stats.push replace (apply (U.Replace_text { node = leaf; text = text ^ "x" }));
    Stats.push replace (apply (U.Replace_text { node = leaf; text }));
    Stats.push interior (apply (U.Insert { parent = 0; index = 0; subtree }));
    Stats.push delete (apply (U.Delete { node = 1 }))
  done;
  let med b = ms (Stats.median (Stats.contents b)) in
  [
    ("maintain.append_ms", med append);
    ("maintain.delete_ms", med delete);
    ("maintain.replace_ms", med replace);
    ("maintain.interior_ms", med interior);
  ]

let run ~smoke input =
  let reps = if smoke then 1 else 3 in
  let rounds = if smoke then 1 else 5 in
  let parse_ns = median_ns reps (fun () -> parse_file input.xml_path) in
  let sax_ns = median_ns reps (fun () -> drain_sax input.xml_path) in
  let elem = parse_file input.xml_path in
  let label_ns = median_ns reps (fun () -> D.of_elem elem) in
  let dispatch () =
    let d = Xmlest.Predicate.dispatch input.doc input.preds in
    D.iter input.doc (fun v -> Xmlest.Predicate.dispatch_node d input.doc v ~f:ignore);
    d
  in
  let dispatch_ns = median_ns reps dispatch in
  let dispatch_evals = Xmlest.Predicate.dispatch_evals (dispatch ()) in
  let build () = S.build ~grid_size:input.grid_size input.doc input.preds in
  let build_ns = median_ns reps build in
  let stream_ns =
    median_ns reps (fun () ->
        S.build_stream_file ~grid_size:input.grid_size input.xml_path input.preds)
  in
  let built = build () in
  let passes, evals =
    match S.stats built with
    | Some st -> (st.S.passes, st.S.predicate_evals)
    | None -> (0, 0)
  in
  let write_ns = median_ns reps (fun () -> S.save_store built input.scratch) in
  let open_ns =
    median_ns (if smoke then 5 else 200) (fun () ->
        match S.load_store input.store_path with
        | Ok s -> s
        | Error e -> failwith e)
  in
  let s = input.summary in
  (* the first 200 patterns keep the optimizer probes to seconds *)
  let first a = Array.sub a 0 (Int.min 200 (Array.length a)) in
  let pats = first input.patterns in
  let parse_q_ns =
    per_item_ns rounds (first input.queries) (fun q ->
        match Xmlest.Pattern_parser.parse q with Ok q -> q | Error e -> failwith e)
  in
  let check_ns = per_item_ns rounds pats (S.check s) in
  Array.iter (fun p -> ignore (S.estimate s p)) pats;
  let estimate_ns = per_item_ns rounds pats (S.estimate s) in
  let hists = Array.of_list (List.map (S.histogram s) input.preds) in
  let coef_ns = per_item_ns rounds hists Xmlest.Ph_join.descendant_coefficients in
  let pairs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun anc ->
              Array.map
                (fun desc -> (anc, desc, Xmlest.Ph_join.descendant_coefficients desc))
                (Array.sub hists 0 (Int.min 8 (Array.length hists))))
            (Array.sub hists 0 (Int.min 8 (Array.length hists)))))
  in
  let join_ns =
    per_item_ns rounds pairs (fun (anc, desc, coefs) ->
        Xmlest.Ph_join.estimate_with ~coefs ~anc ~desc ())
  in
  let covered =
    Array.concat
      (List.map
         (fun p ->
           match S.coverage s p with
           | Some coverage -> Array.map (fun desc -> (desc, coverage)) hists
           | None -> [||])
         input.preds)
  in
  let no_overlap_ns =
    per_item_ns rounds covered (fun (desc, coverage) ->
        Xmlest.No_overlap.estimate ~desc ~coverage)
  in
  let cat = S.catalog s in
  let best_ns = per_item_ns rounds pats (Xmlest.Optimizer.best cat) in
  let mean_of f = Stats.mean (Array.map (fun p -> float_of_int (f p)) pats) in
  let plans = mean_of (fun p -> List.length (Xmlest.Optimizer.rank cat p)) in
  let steps = Array.map (fun p -> snd (S.explain s p)) pats in
  let count_steps pred =
    Array.fold_left (fun acc st -> acc + List.length (List.filter pred st)) 0 steps
  in
  let joins = count_steps (fun _ -> true) in
  let coverage_joins =
    count_steps (fun st -> String.equal st.Xmlest.Twig_estimator.method_used "coverage")
  in
  let subtree =
    match elem.Xmlest.Elem.children with c :: _ -> c | [] -> Xmlest.Elem.make "probe"
  in
  let maint = maintenance ~reps:(if smoke then 1 else 5) built subtree in
  let d2_ns =
    median_ns reps (fun () -> S.build ~domains:2 ~grid_size:input.grid_size input.doc input.preds)
  in
  let pat_list = Array.to_list pats in
  let batch d = median_ns reps (fun () -> S.estimate_batch ~domains:d s pat_list) in
  let batch_d1_ns = batch 1 in
  let batch_d2_ns = batch 2 in
  let nf = float_of_int (Int.max 1 (Array.length pats)) in
  [
    ("xmldb.parse_ms", ms parse_ns);
    ("xmldb.sax_ms", ms sax_ns);
    ("xmldb.label_ms", ms label_ns);
    ("query.dispatch_ms", ms dispatch_ns);
    ("query.dispatch_evals", float_of_int dispatch_evals);
    ("query.parse_us", us parse_q_ns);
    ("query.check_us", us check_ns);
    ("summary.build_ms", ms build_ns);
    ("summary.stream_self_ms", ms (stream_ns -. sax_ns));
    ("summary.passes", float_of_int passes);
    ("summary.predicate_evals", float_of_int evals);
    ("summary.estimate_us", us estimate_ns);
    ("store.write_ms", ms write_ns);
    ("store.open_us", us open_ns);
    ("ph_join.coef_us", us coef_ns);
    ("ph_join.join_us", us join_ns);
    ("no_overlap.join_us", us no_overlap_ns);
    ("estimate.joins_per_req", float_of_int joins /. nf);
    ("estimate.coverage_share", float_of_int coverage_joins /. float_of_int (Int.max 1 joins));
    ("optimizer.best_us", us best_ns);
    ("optimizer.plans_per_req", plans);
  ]
  @ maint
  @ [
      ("parallel.build_d2_ms", ms d2_ns);
      ("parallel.batch_d1_ms", ms batch_d1_ns);
      ("parallel.batch_d2_ms", ms batch_d2_ns);
    ]
