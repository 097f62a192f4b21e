(* The estimator's benchmark.

     perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--smoke]
     perf.exe compare A1.json A2.json ... -- B1.json B2.json ...

   One run sets the workload up five times (reporting the median set-up
   time), warms it up, then serves requests in a closed loop with one
   client for S seconds and prints every end-to-end metric.  With
   [--trace 1] it instead runs the loop half untraced and half traced,
   runs the per-layer probes, and prints every per-layer metric.  The last
   line a run prints is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics].  Without [--workload] every
   workload runs, each in a child process of its own.  A broken
   correctness invariant exits with code 1, bad arguments with 2. *)

open Xmlest_core

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  smoke : bool;
}

let now = Monotonic_clock.now
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* Exceptions that mean "this operation failed", counted in [failed];
   anything else aborts the run. *)
let operation_failed = function
  | Failure _ | Invalid_argument _ | Not_found | Sys_error _ | Unix.Unix_error _
  | Xmlest.Xml_parser.Parse_error _ ->
    true
  | _ -> false

type loop = {
  latencies : float array;  (** ns, successful requests only *)
  block_medians : float array;
      (** median latency of the requests started in each tenth of the
          budget *)
  attempted : int;
  failed : int;
  alloc_words : float;
}

(* Closed loop, one client: prepare (untimed), request (timed), check
   (untimed), until the budget is spent or [limit] requests ran; always at
   least one request. *)
let run_loop ~budget_s ~limit (inst : Workloads.instance) call =
  let lat = Stats.samples () and starts = Stats.samples () in
  let attempted = ref 0 and failed = ref 0 in
  let minor0, promoted0, major0 = Gc.counters () in
  let start = now () in
  let deadline = Int64.add start (Int64.of_float (budget_s *. 1e9)) in
  while
    Int.equal !attempted 0
    || (Int64.compare (now ()) deadline < 0 && (limit <= 0 || !attempted < limit))
  do
    inst.prepare ();
    let i = !attempted in
    let t0 = now () in
    let outcome =
      match call i with check -> Some check | exception e when operation_failed e -> None
    in
    let t = ns_since t0 in
    incr attempted;
    match outcome with
    | Some check ->
      Stats.push lat t;
      Stats.push starts (Int64.to_float (Int64.sub t0 start));
      check ()
    | None -> incr failed
  done;
  let minor1, promoted1, major1 = Gc.counters () in
  let latencies = Stats.contents lat in
  {
    latencies;
    block_medians =
      Stats.block_medians ~width:(Float.max 1.0 (budget_s *. 1e8)) (Stats.contents starts) latencies;
    attempted = !attempted;
    failed = !failed;
    alloc_words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
  }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let qerror (est, exact) =
  let e = est +. 1.0 and r = float_of_int exact +. 1.0 in
  Float.max (e /. r) (r /. e)

let machine () =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Xmlest.Domain_pool.recommended_domains ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("os", Json.Str Sys.os_type);
      ("word_size", Json.Num (float_of_int Sys.word_size));
      ("clock", Json.Str "bechamel.monotonic_clock (CLOCK_MONOTONIC), ns");
    ]

(* The fields of the result line, which the [--out] record repeats. *)
let result ~correct ~attempted ~failed metrics =
  [
    ("correct", Json.Bool correct);
    ("attempted", Json.Num (float_of_int attempted));
    ("failed", Json.Num (float_of_int failed));
    ( "metrics",
      Json.Obj
        (List.map
           (fun (name, v, unit) ->
             (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
           metrics) );
  ]

(* Look every metric of [table] up in [values]; a missing one is a bug in
   the benchmark, not a measurement. *)
let select table values =
  List.map
    (fun (m : Metrics.t) ->
      match List.assoc_opt m.name values with
      | Some v -> (m.name, v, m.unit)
      | None -> failwith ("metric not measured: " ^ m.name))
    table

(* Fresh work directory under the current one; the stream build's spill
   files go there too. *)
let with_work_dir name f =
  let root = "_perf" in
  let dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let previous_tmp = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name previous_tmp;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      (try Sys.rmdir dir with Sys_error _ -> ());
      try Sys.rmdir root with Sys_error _ -> ())
    (fun () -> f dir)

let run_workload opts name (setup : Workloads.env -> Workloads.instance) =
  with_work_dir name @@ fun work ->
  let env = { Workloads.smoke = opts.smoke; seed = opts.seed; work } in
  let traced_run = opts.trace || opts.smoke in
  (* Set up five times and keep the last instance; the previous one is
     dropped before the next set-up starts. *)
  let setups = if traced_run then 1 else 5 in
  let inst = ref None in
  let setup_times =
    Array.init setups (fun _ ->
        inst := None;
        Gc.full_major ();
        let t0 = now () in
        inst := Some (setup env);
        ns_since t0 /. 1e9)
  in
  let (inst : Workloads.instance) = match !inst with Some i -> i | None -> assert false in
  let accuracy = inst.accuracy () in
  Array.iter (fun (e, _) -> Workloads.check_estimate "accuracy set" e) accuracy;
  let qerrors = Array.map qerror accuracy in
  Gc.compact ();
  let seconds = opts.seconds in
  let limit = if opts.smoke then 30 else 0 in
  (* The heap peak is read after set-up and one request, so it does not
     depend on how many requests fit in the run. *)
  let first = run_loop ~budget_s:0.0 ~limit:1 inst (fun _ -> inst.request ()) in
  let peak_heap_mb = top_heap_mb () in
  let warm =
    run_loop
      ~budget_s:(Float.min 1.0 (seconds /. 10.0))
      ~limit:(if opts.smoke then 1 else 0)
      inst
      (fun _ -> inst.request ())
  in
  let untraced =
    run_loop ~budget_s:(if opts.trace then seconds /. 2.0 else seconds) ~limit inst (fun _ ->
        inst.request ())
  in
  (* Other tenants of the machine slow it down in episodes of a few
     seconds, which only ever add time: the first quartile of the block
     medians reads the latency of the blocks they spared. *)
  let latency l = Stats.quantile l.block_medians 0.25 in
  let e2e =
    [
      ("latency_ms", latency untraced /. 1e6);
      ("setup_s", Stats.median setup_times);
      ("qerror_p50", Stats.median qerrors);
      ("store_kb", float_of_int inst.store_bytes /. 1024.0);
      ("peak_heap_mb", peak_heap_mb);
    ]
  in
  let tr = Trace.create () in
  let traced, layers =
    if traced_run then begin
      let h0, m0, r0 = inst.catalog () in
      let traced =
        run_loop ~budget_s:(seconds /. 2.0) ~limit inst (fun i ->
            Trace.request tr i (fun () -> inst.traced tr ()))
      in
      let h1, m1, r1 = inst.catalog () in
      let n = float_of_int (Int.max 1 tr.Trace.requests) in
      let lookups = h1 - h0 + (m1 - m0) + (r1 - r0) in
      let spans = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Trace.self_per_request tr) in
      let loop_layers =
        [
          ("catalog.hits_per_req", float_of_int (h1 - h0) /. n);
          ("catalog.misses_per_req", float_of_int (m1 - m0) /. n);
          ("catalog.recomputes_per_req", float_of_int (r1 - r0) /. n);
          ( "catalog.hit_pct",
            if lookups > 0 then 100.0 *. float_of_int (h1 - h0) /. float_of_int lookups else 0.0 );
          ( "gc.alloc_kb_per_req",
            untraced.alloc_words *. float_of_int (Sys.word_size / 8)
            /. 1024.0
            /. float_of_int (Int.max 1 untraced.attempted) );
          ("trace.overhead_pct", 100.0 *. ((latency traced /. latency untraced) -. 1.0));
          ("trace.cover_pct", 100.0 *. Trace.cover tr);
          ("trace.spans_per_req", float_of_int spans /. n);
          ("maintain.rebuild_pct", inst.rebuild_pct ());
        ]
      in
      let probes = Probes.run ~smoke:opts.smoke inst.probe in
      (Some traced, probes @ loop_layers)
    end
    else (None, [])
  in
  let detail = inst.finish () in
  let loops = first :: warm :: untraced :: Option.to_list traced in
  let attempted = List.fold_left (fun acc l -> acc + l.attempted) 0 loops in
  let failed = List.fold_left (fun acc l -> acc + l.failed) 0 loops in
  let metrics =
    (if opts.trace then [] else select Metrics.end_to_end e2e)
    @ if traced_run then select Metrics.per_layer layers else []
  in
  let lat_ms q = Stats.quantile untraced.latencies q /. 1e6 in
  Printf.printf "workload %s  seed %d  %d requests (%d failed)\n" name opts.seed attempted failed;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.6g %s\n" n v u) metrics;
  if traced_run then begin
    Printf.printf "  request split (self time per traced request, cover %.1f%%):\n"
      (100.0 *. Trace.cover tr);
    List.iter
      (fun (n, ns, calls) -> Printf.printf "    %-26s %12.1f us  %d calls\n" n (ns /. 1e3) calls)
      (Trace.self_per_request tr)
  end;
  let fields = result ~correct:true ~attempted ~failed metrics in
  (match opts.out with
  | None -> ()
  | Some path ->
    let num x = Json.Num x in
    Json.to_file path
      (Json.Obj
         ([
            ("workload", Json.Str name);
            ("seed", num (float_of_int opts.seed));
            ("seconds", num seconds);
            ("trace", Json.Bool opts.trace);
            ("smoke", Json.Bool opts.smoke);
            ("machine", machine ());
            ("inputs", Json.Obj inst.fingerprint);
          ]
         @ fields
         @ [
            ( "detail",
              Json.Obj
                ([
                   ("requests", num (float_of_int (Array.length untraced.latencies)));
                   ("latency_p50_ms", num (lat_ms 0.5));
                   ("latency_mean_ms", num (Stats.mean untraced.latencies /. 1e6));
                   ("latency_p90_ms", num (lat_ms 0.9));
                   ("latency_p99_ms", num (lat_ms 0.99));
                   ("setup_s_all", Json.Arr (Array.to_list (Array.map num setup_times)));
                   ("accuracy_set", num (float_of_int (Array.length qerrors)));
                 ]
                @ detail) );
           ]
         @ if traced_run then [ ("trace", Trace.to_json tr) ] else [])));
  print_endline (Json.to_string (Json.Obj fields))

let run_one opts name =
  match List.assoc_opt name Workloads.all with
  | None ->
    Printf.eprintf "unknown workload %S; known: %s\n" name
      (String.concat ", " (List.map fst Workloads.all));
    2
  | Some setup -> (
    match run_workload opts name setup with
    | () -> 0
    | exception Workloads.Broken msg ->
      Printf.eprintf "perf: %s: correctness check failed: %s\n" name msg;
      print_endline (Json.to_string (Json.Obj (result ~correct:false ~attempted:1 ~failed:0 [])));
      1)

(* Every workload in a fresh child process, one after another, so no
   heap state carries from one to the next. *)
let run_all opts =
  List.fold_left
    (fun code (name, _) ->
      let args =
        [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int opts.seed;
          "--seconds"; Printf.sprintf "%g" opts.seconds; "--trace";
          (if opts.trace then "1" else "0") ]
        @ (if opts.smoke then [ "--smoke" ] else [])
        @
        match opts.out with
        | Some out -> [ "--out"; Printf.sprintf "%s.%s.json" (Filename.remove_extension out) name ]
        | None -> []
      in
      flush_all ();
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
          Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> code
      | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
        Printf.eprintf "perf: workload %s failed\n%!" name;
        1)
    0 Workloads.all

let main () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and out = ref None and smoke = ref false in
  let specs =
    [
      ( "--workload",
        Arg.String (fun w -> workload := Some w),
        "W  one of build, stream, plan, oneshot, maintain (default: all, each in a child process)" );
      ("--seed", Arg.Set_int seed, "N  seed of the pattern and update streams (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per run (default 10)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  report the per-layer metrics instead of the end-to-end ones" );
      ("--out", Arg.String (fun f -> out := Some f), "FILE  also write the full result record as JSON");
      ("--smoke", Arg.Set smoke, " tiny inputs, 30 requests per loop, every check, both metric sets");
    ]
  in
  let usage = "perf.exe [options]\n       perf.exe compare A.json ... -- B.json ..." in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let opts =
    { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace; out = !out;
      smoke = !smoke }
  in
  match opts.workload with Some name -> run_one opts name | None -> run_all opts

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> exit (Compare.main rest)
  | _ -> exit (main ())
