(* The five workloads.

   Each workload sets up its inputs, then serves requests in a closed loop
   with one client.  A request comes in two versions with the same calls:
   [request] for the measured run, with no span calls at all, and [traced],
   which wraps every call into a layer in a {!Trace} span.  Both return
   the request's correctness check, which the caller runs after stopping
   the clock. *)

open Xmlest_core
module S = Xmlest.Summary
module D = Xmlest.Document
module Rng = Xmlest.Splitmix

type env = { smoke : bool; seed : int; work : string }

exception Broken of string
(** A correctness invariant failed: the run's numbers cannot be trusted. *)

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

let check_estimate what e =
  if not (Float.is_finite e && e >= 0.0) then
    broken "%s: estimate %h is not finite and non-negative" what e

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

type instance = {
  probe : Probes.input;
  fingerprint : (string * Json.t) list;
  store_bytes : int;
  accuracy : unit -> (float * int) array;
      (** (estimate, exact answer) over the workload's accuracy set, taken
          before the first request *)
  prepare : unit -> unit;  (** untimed, before each request *)
  request : unit -> unit -> unit;
  traced : Trace.t -> unit -> unit -> unit;
  catalog : unit -> int * int * int;
      (** cumulative coefficient-catalog hits, misses, recomputes *)
  rebuild_pct : unit -> float;
      (** share of updates after which the summary was rebuilt *)
  finish : unit -> (string * Json.t) list;
      (** end-of-run invariants, then workload-specific detail *)
}

(* --- Set-up shared by all workloads: generate, parse, build, save ---- *)

type loaded = {
  ds : Inputs.dataset;
  xml_path : string;
  doc : D.t;
  summary : S.t;
  store_path : string;
}

let load env (ds : Inputs.dataset) =
  let xml_path = Filename.concat env.work (ds.name ^ ".xml") in
  let store_path = Filename.concat env.work (ds.name ^ ".xsum") in
  Xmlest.Xml_writer.to_file xml_path (ds.generate ());
  let doc = D.of_elem (Probes.parse_file xml_path) in
  let summary = S.build ~grid_size:ds.grid_size doc ds.preds in
  S.save_store summary store_path;
  { ds; xml_path; doc; summary; store_path }

let open_store path = match S.load_store path with Ok s -> s | Error e -> failwith e

let parse_query q =
  match Xmlest.Pattern_parser.parse q with Ok q -> q.root | Error e -> failwith e

let probe_input env l queries patterns =
  {
    Probes.xml_path = l.xml_path;
    doc = l.doc;
    grid_size = l.ds.grid_size;
    preds = l.ds.preds;
    summary = l.summary;
    store_path = l.store_path;
    queries;
    patterns;
    scratch = Filename.concat env.work "probe.xsum";
  }

let fingerprint l queries =
  [
    ("dataset", Json.Str l.ds.name);
    ("nodes", Json.Num (float_of_int (D.size l.doc)));
    ("predicates", Json.Num (float_of_int (List.length l.ds.preds)));
    ("grid_size", Json.Num (float_of_int l.ds.grid_size));
    ("xml_md5", Json.Str (Digest.to_hex (Digest.file l.xml_path)));
    ("patterns", Json.Num (float_of_int (Array.length queries)));
    ("patterns_md5", Json.Str (Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list queries)))));
  ]

let store_bytes path = (Unix.stat path).Unix.st_size

(* Distinct patterns, first occurrence first, at most [n]. *)
let distinct n queries patterns =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Array.iteri
    (fun i q ->
      if Hashtbl.length seen < n && not (Hashtbl.mem seen q) then begin
        Hashtbl.add seen q ();
        out := patterns.(i) :: !out
      end)
    queries;
  Array.of_list (List.rev !out)

(* The accuracy set is drawn with a fixed seed, not [--seed], so
   qerror_p50 reads the same on every run and moves only when estimates
   do. *)
let fixed_rng () = Rng.create 0

let accuracy_of summary doc pats () =
  Array.map (fun p -> (S.estimate summary p, Xmlest.Twig_count.count doc p)) pats

let no_catalog () = (0, 0, 0)

(* Cumulative catalog counters of a long-lived summary.  A rebuild swaps
   in a fresh catalog whose counters start from zero, so the returned
   function must also run before every update that can rebuild. *)
let catalog_of summary =
  let module C = Xmlest.Hist_catalog in
  let total = ref (0, 0, 0) in
  let last = ref (S.hist_catalog summary) in
  let seen = ref (C.counters !last) in
  fun () ->
    let cat = S.hist_catalog summary in
    let c = C.counters cat in
    let base = if cat == !last then !seen else { c with hits = 0; misses = 0; recomputes = 0 } in
    let h, m, r = !total in
    total := (h + c.hits - base.hits, m + c.misses - base.misses, r + c.recomputes - base.recomputes);
    last := cat;
    seen := c;
    !total

(* The record twigs of the DBLP workloads: the oneshot request stream,
   the probe set of [build] and [stream], and (with the fixed seed) the
   accuracy set. *)
let record_pool env rng =
  let queries = Inputs.record_twigs rng ~n:(if env.smoke then 100 else 500) in
  (queries, Array.map parse_query queries)

let record_accuracy env l =
  let queries, patterns = record_pool env (fixed_rng ()) in
  accuracy_of l.summary l.doc (distinct 200 queries patterns)

(* --- build / stream ------------------------------------------------------ *)

(* Both rebuild the canonical DBLP summary from the XML file on disk and
   save it; every result must be [to_string]-identical to the in-memory
   build made during set-up, and must reopen identically from its store. *)
let construction env ~streamed =
  let l = load env (Inputs.dblp ~smoke:env.smoke) in
  let reference = S.to_string l.summary in
  let out = Filename.concat env.work "out.xsum" in
  let queries, patterns = record_pool env (Rng.create env.seed) in
  let path = if streamed then "streamed" else "in-memory" in
  let check s () =
    if not (String.equal (S.to_string s) reference) then
      broken "%s build differs from the reference in-memory build" path;
    if not (String.equal (S.to_string (open_store out)) reference) then
      broken "%s build does not reopen identically from its store" path
  in
  let grid_size = l.ds.grid_size and preds = l.ds.preds in
  let request, traced =
    if streamed then
      ( (fun () ->
          let s = S.build_stream_file ~grid_size l.xml_path preds in
          S.save_store s out;
          check s),
        fun tr () ->
          let s =
            Trace.span tr "summary.stream" (fun () ->
                S.build_stream_file ~grid_size l.xml_path preds)
          in
          Trace.span tr "store.write" (fun () -> S.save_store s out);
          check s )
    else
      ( (fun () ->
          let doc = D.of_elem (Probes.parse_file l.xml_path) in
          let s = S.build ~grid_size doc preds in
          S.save_store s out;
          check s),
        fun tr () ->
          let e = Trace.span tr "xmldb.parse" (fun () -> Probes.parse_file l.xml_path) in
          let doc = Trace.span tr "xmldb.label" (fun () -> D.of_elem e) in
          let s = Trace.span tr "summary.build" (fun () -> S.build ~grid_size doc preds) in
          Trace.span tr "store.write" (fun () -> S.save_store s out);
          check s )
  in
  {
    probe = probe_input env l queries patterns;
    fingerprint = fingerprint l queries;
    store_bytes = store_bytes l.store_path;
    accuracy = record_accuracy env l;
    prepare = ignore;
    request;
    traced;
    catalog = no_catalog;
    rebuild_pct = (fun () -> 0.0);
    finish = (fun () -> []);
  }

let build env = construction env ~streamed:false
let stream env = construction env ~streamed:true

(* --- plan ---------------------------------------------------------------- *)

(* The catalog view with every lookup wrapped in a span, so the optimizer's
   own time (plan enumeration, twig composition, pH-join arithmetic) is
   the self time of its span. *)
let traced_catalog tr (c : Xmlest.Twig_estimator.catalog) =
  let wrap name f x = Trace.span tr name (fun () -> f x) in
  {
    Xmlest.Twig_estimator.hist = wrap "histogram.lookup" c.hist;
    coverage = wrap "histogram.lookup" c.coverage;
    level = wrap "histogram.lookup" c.level;
    position_levels = wrap "histogram.lookup" c.position_levels;
    desc_coefs = wrap "catalog.coefs" c.desc_coefs;
    anc_coefs = wrap "catalog.coefs" c.anc_coefs;
  }

(* A plan request costs a batch of ten twigs.  One optimizer call costs
   from tens of microseconds to milliseconds with the twig's size and
   shape; a batch keeps the request latency unimodal, so its median holds
   still from run to run. *)
let batch = 10

let plan env =
  let l = load env (Inputs.treebank ~smoke:env.smoke) in
  let rng = Rng.create env.seed in
  let pool = Inputs.doc_twigs (Rng.split rng) l.doc ~n:(if env.smoke then 100 else 2000) in
  let queries = Array.map Xmlest.Pattern.to_string pool in
  let picks = Array.make batch 0 and costs = Array.make batch 0.0 in
  let first_cost = Array.make (Array.length pool) nan in
  (* The catalog memoizes coefficient arrays: a pattern costed again must
     cost exactly what it cost the first time. *)
  let check () =
    Array.iteri
      (fun j i ->
        let c = costs.(j) in
        check_estimate "plan cost" c;
        if Float.is_nan first_cost.(i) then first_cost.(i) <- c
        else if not (bits_equal first_cost.(i) c) then
          broken "plan: %s costs %h now, %h before" queries.(i) c first_cost.(i))
      picks
  in
  let best cat i = (Xmlest.Optimizer.best cat pool.(i)).Xmlest.Optimizer.cost in
  {
    probe = probe_input env l queries pool;
    fingerprint = fingerprint l queries;
    store_bytes = store_bytes l.store_path;
    accuracy =
      (let acc = Inputs.doc_twigs (fixed_rng ()) l.doc ~n:200 in
       accuracy_of l.summary l.doc (distinct 200 (Array.map Xmlest.Pattern.to_string acc) acc));
    prepare = (fun () -> Array.iteri (fun j _ -> picks.(j) <- Rng.int rng (Array.length pool)) picks);
    request =
      (fun () ->
        Array.iteri (fun j i -> costs.(j) <- best (S.catalog l.summary) i) picks;
        check);
    traced =
      (fun tr () ->
        Array.iteri
          (fun j i ->
            costs.(j) <-
              Trace.span tr "optimizer.best" (fun () ->
                  best (traced_catalog tr (S.catalog l.summary)) i))
          picks;
        check);
    catalog = catalog_of l.summary;
    rebuild_pct = (fun () -> 0.0);
    finish = (fun () -> []);
  }

(* --- oneshot ------------------------------------------------------------- *)

(* The CLI's [estimate --store] path without the process start: open the
   store, parse the query, estimate with the static check.  Every request
   opens a fresh store, so its coefficient catalog starts cold. *)
let oneshot env =
  let l = load env (Inputs.dblp ~smoke:env.smoke) in
  let rng = Rng.create env.seed in
  let queries, patterns = record_pool env (Rng.split rng) in
  let expected = Array.map (S.estimate l.summary) patterns in
  let cur = ref 0 in
  let hits = ref 0 and misses = ref 0 and recomputes = ref 0 in
  let check i s e () =
    check_estimate queries.(i) e;
    if not (bits_equal e expected.(i)) then
      broken "oneshot: %s estimates %h from the store, %h in memory" queries.(i) e
        expected.(i);
    let c = Xmlest.Hist_catalog.counters (S.hist_catalog s) in
    hits := !hits + c.hits;
    misses := !misses + c.misses;
    recomputes := !recomputes + c.recomputes
  in
  {
    probe = probe_input env l queries patterns;
    fingerprint = fingerprint l queries;
    store_bytes = store_bytes l.store_path;
    accuracy = record_accuracy env l;
    prepare = (fun _ -> cur := Rng.int rng (Array.length queries));
    request =
      (fun () ->
        let i = !cur in
        let s = open_store l.store_path in
        let p = parse_query queries.(i) in
        check i s (fst (S.estimate_checked s p)));
    traced =
      (fun tr () ->
        let i = !cur in
        let s = Trace.span tr "store.open" (fun () -> open_store l.store_path) in
        let p = Trace.span tr "query.parse" (fun () -> parse_query queries.(i)) in
        check i s
          (fst (Trace.span tr "summary.estimate_checked" (fun () -> S.estimate_checked s p))));
    catalog = (fun () -> (!hits, !misses, !recomputes));
    rebuild_pct = (fun () -> 0.0);
    finish = (fun () -> []);
  }

(* --- maintain ------------------------------------------------------------ *)

(* A maintain request is one block of ten updates in [Inputs.block]'s mix,
   each applied under the default [`Threshold 0.5] policy and followed by
   ten estimates.  Every request holds the same mix, including the one
   interior insert, which trips a rebuild, so the request latency is
   unimodal.  Each update is drawn in O(1) against the document as it
   stands, inside the request, since its node references depend on the
   updates before it. *)
let maintain env =
  let l = load env (Inputs.dblp ~smoke:env.smoke) in
  let s = l.summary in
  let queries = Inputs.maintain_queries in
  let patterns = Array.map parse_query queries in
  let rng = Rng.create env.seed in
  let articles = Array.length (D.nodes_with_tag l.doc "article") in
  let kinds = Array.copy Inputs.block in
  let n = ref 0 in
  let drawn = Array.make 10 (Xmlest.Update.Delete { node = 1 }) in
  let apply_t = Array.make 10 0L and est_t = Array.make 10 0L in
  let rebuilt = Array.make 10 false in
  let estimates = Array.make 100 0.0 in
  let lines = Buffer.create 4096 in
  let apply_ns = Stats.samples () and estimate_ns = Stats.samples () in
  let by_kind =
    List.map (fun kd -> (kd, Stats.samples ())) Inputs.[ Append; Delete; Replace; Interior ]
  in
  let rebuilds = ref 0 in
  let catalog = catalog_of s in
  let doc () = match S.document s with Some d -> d | None -> failwith "no document" in
  let now = Monotonic_clock.now in
  let block ~apply ~estimate =
    for j = 0 to 9 do
      let u = Inputs.update rng ~articles (doc ()) kinds.(j) (!n + j) in
      drawn.(j) <- u;
      ignore (catalog ());
      let before = S.hist_catalog s in
      let t0 = now () in
      apply u;
      let t1 = now () in
      rebuilt.(j) <- not (before == S.hist_catalog s);
      for e = 0 to 9 do
        estimates.((10 * j) + e) <-
          estimate patterns.((((!n + j) * 10) + e) mod Array.length patterns)
      done;
      apply_t.(j) <- Int64.sub t1 t0;
      est_t.(j) <- Int64.sub (now ()) t1
    done;
    n := !n + 10;
    fun () ->
      Array.iter (check_estimate "maintain") estimates;
      for j = 0 to 9 do
        let a = Int64.to_float apply_t.(j) in
        Stats.push apply_ns a;
        Stats.push estimate_ns (Int64.to_float est_t.(j) /. 10.0);
        if rebuilt.(j) then incr rebuilds
        else
          match List.assq_opt kinds.(j) by_kind with
          | Some b -> Stats.push b a
          | None -> ()
      done;
      if !n <= 100 then
        Array.iter
          (fun u ->
            Buffer.add_string lines (Xmlest.Update.to_line u);
            Buffer.add_char lines '\n')
          drawn
  in
  let updates () = float_of_int (Int.max 1 !n) in
  let med b = Stats.median (Stats.contents b) in
  {
    probe = probe_input env l queries patterns;
    fingerprint = fingerprint l queries;
    store_bytes = store_bytes l.store_path;
    accuracy = accuracy_of s l.doc patterns;
    prepare = (fun () -> Rng.shuffle rng kinds);
    request = (fun () -> block ~apply:(fun u -> S.apply s [ u ]) ~estimate:(S.estimate s));
    traced =
      (fun tr () ->
        block
          ~apply:(fun u -> Trace.span tr "summary.apply" (fun () -> S.apply s [ u ]))
          ~estimate:(fun p -> Trace.span tr "summary.estimate" (fun () -> S.estimate s p)));
    catalog;
    rebuild_pct =
      (fun () ->
        100.0 *. float_of_int !rebuilds /. updates ());
    finish =
      (fun () ->
        let fresh = S.build ~grid_size:l.ds.grid_size (doc ()) l.ds.preds in
        List.iter
          (fun p ->
            let a = S.node_count s p and b = S.node_count fresh p in
            if not (Float.equal a b) then
              broken "maintain: %s counts %g nodes, a fresh build %g"
                (Xmlest.Predicate.name p) a b)
          l.ds.preds;
        let num x = Json.Num x in
        [
          ("updates", num (updates ()));
          ("updates_md5_first_100", Json.Str (Digest.to_hex (Digest.string (Buffer.contents lines))));
          ("nodes_after", num (float_of_int (D.size (doc ()))));
          ("rebuilds", num (float_of_int !rebuilds));
          ("update_p50_ms", num (med apply_ns /. 1e6));
          ("update_mean_ms", num (Stats.mean (Stats.contents apply_ns) /. 1e6));
          ("est_p50_us", num (med estimate_ns /. 1e3));
          ("est_mean_us", num (Stats.mean (Stats.contents estimate_ns) /. 1e3));
        ]
        @ List.filter_map
            (fun (kd, b) ->
              if b.Stats.len = 0 then None
              else Some ("apply_p50_ms." ^ Inputs.kind_name kd, num (med b /. 1e6)))
            by_kind);
  }

let all =
  [
    ("build", build);
    ("stream", stream);
    ("plan", plan);
    ("oneshot", oneshot);
    ("maintain", maintain);
  ]
