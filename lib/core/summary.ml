open Xmlest_xmldb
open Xmlest_query
open Xmlest_histogram
open Xmlest_estimate
module Update = Xmlest_maintain.Update
module Apply = Xmlest_maintain.Apply
module Staleness = Xmlest_maintain.Staleness

type entry = {
  pred : Predicate.t;
  hist : Position_histogram.t;
  no_overlap : bool;
  cvg : Coverage_histogram.t option;
  lvl : Level_histogram.t option;
}

type build_stats = {
  path : [ `Fused | `Streamed ];
  passes : int;
  predicate_evals : int;
  build_time : float;
}

(* A reopened store's population histogram is adopted on first use. *)
type population = Adopted of Position_histogram.t | In_store of Store.t

type t = {
  mutable doc : Document.t option;  (* None for summaries loaded from disk *)
  mutable grid : Grid.t;
  mutable preds : Predicate.t list;
      (* of a reopened store: filled in when [store] is dropped *)
  entries : (string, entry) Hashtbl.t;  (* keyed by Predicate.name *)
  mutable pop : population;
  with_levels : bool;
  mutable hcat : Catalog.t;
      (* every position histogram (base + built on demand), keyed by
         Predicate.name, with memoized pH-join coefficient arrays *)
  lph_cache : (string, Level_position_histogram.t) Hashtbl.t;
  mutable stats : build_stats option;  (* None for summaries loaded from disk *)
  mutable maint : Apply.t option;
      (* incremental-maintenance engine, created lazily on the first
         [apply]; doc/grid/pop/hcat/stats are mutable so a
         staleness-triggered rebuild can swap them in place *)
  untracked : (string, Predicate.t) Hashtbl.t;
      (* the predicates of histograms built on demand into [hcat] while
         [maint] is [None], by name: the engine takes them over when it
         starts *)
  mutable store : Store.t option;
      (* a reopened store with sections not adopted yet: each becomes an
         entry the first time a lookup names its predicate *)
}

(* The catalog lives below xmlest_estimate in the library stack, so the
   coefficient computations are injected here, where both are in scope. *)
let make_hist_catalog () =
  Catalog.create ~compute_desc:Ph_join.descendant_coefficients
    ~compute_anc:Ph_join.ancestor_coefficients ()

let register_entries hcat entries =
  Hashtbl.iter (fun key e -> Catalog.add hcat ~key e.hist) entries

(* --- Construction core ------------------------------------------------ *)

(* Both builds — the fused document sweep and the streamed SAX build —
   run on this core: they dedup the predicates, derive the grid, feed
   one builder set and finish it into entries the same way, and differ
   only in where node records come from and how each node's nearest
   strict P-ancestor is resolved.  Every builder is an order-insensitive
   exact integer accumulator, so the two sources' different feed orders
   (pre-order, post-order) finish into bit-identical summaries. *)

module Pool = Xmlest_parallel.Pool

type plan = {
  plan_preds : Predicate.t list;  (* as given, duplicates included *)
  uniq : Predicate.t array;  (* unique by name, in first-occurrence order *)
  occurrences : int array;  (* the [uniq] index of every [plan_preds] element *)
  schema : bool option array;  (* per [uniq]: schema no-overlap override *)
  plan_levels : bool;
}

let plan ?schema_no_overlap ~with_levels preds =
  let index = Hashtbl.create 16 in
  let uniq = ref [] in
  let occurrences =
    List.map
      (fun pred ->
        let key = Predicate.name pred in
        match Hashtbl.find_opt index key with
        | Some u -> u
        | None ->
          let u = Hashtbl.length index in
          Hashtbl.add index key u;
          uniq := pred :: !uniq;
          u)
      preds
  in
  let uniq = Array.of_list (List.rev !uniq) in
  {
    plan_preds = preds;
    uniq;
    occurrences = Array.of_list occurrences;
    schema =
      (match schema_no_overlap with
      | None -> Array.map (fun _ -> None) uniq
      | Some f -> Array.map f uniq);
    plan_levels = with_levels;
  }

(* One unique predicate's builders, fed by exactly one sweep. *)
type pred_builders = {
  pb_hist : Position_histogram.builder;
  pb_levels : Level_histogram.builder option;  (* None when levels are off *)
  pb_coverage : Coverage_histogram.builder option;
      (* None where a schema override rules coverage out *)
  mutable pb_nesting : bool;  (* a match had a strict match-ancestor *)
}

(* Empty builders over [grid] for unique predicate [u].  A schema
   override saying "overlaps" means the coverage histogram can never be
   kept; its accumulation is skipped entirely. *)
let pred_builders plan grid u =
  {
    pb_hist = Position_histogram.builder grid;
    pb_levels =
      (if plan.plan_levels then Some (Level_histogram.builder ()) else None);
    pb_coverage =
      (match plan.schema.(u) with
      | Some false -> None
      | Some true | None -> Some (Coverage_histogram.builder grid));
    pb_nesting = false;
  }

let feed_match pb ~cell ~level =
  Position_histogram.feed_cell pb.pb_hist cell;
  match pb.pb_levels with Some lb -> Level_histogram.feed lb level | None -> ()

(* The per-node step of both sources: [feed_node grid per res ~pop
   ~matched] is a function of one node — its interval, its level and the
   count of the predicates (indices into [per]) it matches, listed in
   [matched] — that feeds the node's cell to the population (when [pop]
   is given) and to the builders of each match, and its nearest strict
   P-ancestors' cells, from the resolver [res], to the coverage builders.
   Nodes must come ancestors first. *)
let feed_node grid per res ~pop ~matched =
  let on_nearest u ~covered ~covering =
    match per.(u).pb_coverage with
    | Some cb -> Coverage_histogram.feed cb ~covered ~covering
    | None -> ()
  in
  fun ~start_pos ~end_pos ~level nmatched ->
    let i, j = Grid.cell_of_node grid ~start_pos ~end_pos in
    let cell = Grid.index grid ~i ~j in
    (match pop with Some b -> Position_histogram.feed_cell b cell | None -> ());
    Interval_ops.resolve res ~start_pos ~end_pos ~cell ~matched ~nmatched ~on_nearest;
    for m = 0 to nmatched - 1 do
      feed_match per.(matched.(m)) ~cell ~level
    done

(* Once every node is fed: a predicate nests iff the resolver saw a
   match inside another. *)
let set_nesting per res =
  Array.iteri (fun u pb -> pb.pb_nesting <- Interval_ops.nesting_pairs res u > 0) per

(* Equi-depth boundaries are drawn from the starts and ends of the nodes
   matching the base predicates — [positions u] for unique predicate [u],
   sampled once per occurrence in the predicate list, so duplicates count
   twice — which concentrates bucket resolution where the catalog's
   elements live.  (Over the whole document the position population is
   perfectly dense — one node per position pair — and equi-depth
   degenerates to uniform.)  Every position is the fallback when the
   predicates match nothing. *)
let equidepth_grid plan ~grid_size ~max_pos ~positions ~all_positions =
  let per = Array.init (Array.length plan.uniq) positions in
  let samples = Array.map (fun u -> per.(u)) plan.occurrences in
  let sample =
    if Array.for_all (fun a -> Array.length a = 0) samples then all_positions ()
    else Array.concat (Array.to_list samples)
  in
  Array.sort Int.compare sample;
  Grid.equidepth ~size:grid_size ~max_pos ~positions:sample

(* The population's dense per-cell counts, the normalizer every coverage
   histogram is finished with. *)
let population_cells grid pop =
  let g = grid.Grid.size in
  Array.init (Grid.cells grid) (fun c ->
      Position_histogram.get pop ~i:(c / g) ~j:(c mod g))

(* Builders ([per] by unique predicate, [pop] the population) into
   entries and a summary: the no-overlap flag follows the schema
   override, else the observed nesting; coverage is kept for the
   no-overlap predicates that matched at least one node, normalized by
   the population's per-cell counts. *)
let finish plan ~doc ~grid ~path ~passes ~t0 ~per ~pop ~evals =
  let pop = Position_histogram.finish pop in
  let populations = population_cells grid pop in
  let entries = Hashtbl.create 64 in
  Array.iteri
    (fun u pred ->
      let pb = per.(u) in
      let hist = Position_histogram.finish pb.pb_hist in
      let no_overlap =
        match plan.schema.(u) with Some x -> x | None -> not pb.pb_nesting
      in
      let cvg =
        match pb.pb_coverage with
        | Some cb when no_overlap && Position_histogram.total hist > 0.0 ->
          Some (Coverage_histogram.finish cb ~populations)
        | Some _ | None -> None
      in
      Hashtbl.add entries (Predicate.name pred)
        {
          pred;
          hist;
          no_overlap;
          cvg;
          lvl = Option.map Level_histogram.finish pb.pb_levels;
        })
    plan.uniq;
  let hcat = make_hist_catalog () in
  register_entries hcat entries;
  {
    doc;
    grid;
    preds = plan.plan_preds;
    entries;
    pop = Adopted pop;
    with_levels = plan.plan_levels;
    hcat;
    lph_cache = Hashtbl.create 8;
    stats =
      Some
        {
          path;
          passes;
          predicate_evals = evals;
          build_time = Unix.gettimeofday () -. t0;
        };
    maint = None;
    untracked = Hashtbl.create 8;
    store = None;
  }

(* --- Source 1: the document sweep, sequential or over domains --------- *)

(* A dispatch table over the unique predicates [subset], indexed like it.
   Dispatch state is mutable, so every sweep builds its own. *)
let subset_dispatch plan doc subset =
  Predicate.dispatch doc (Array.to_list (Array.map (Array.get plan.uniq) subset))

(* Pass 1 of an equi-depth build: the nodes matching each of the unique
   predicates [subset], in document order, and the evaluations spent. *)
let collect_matches plan doc subset =
  let disp = subset_dispatch plan doc subset in
  let acc = Array.make (Array.length subset) [] in
  for v = 0 to Document.size doc - 1 do
    Predicate.dispatch_node disp doc v ~f:(fun k -> acc.(k) <- v :: acc.(k))
  done;
  (Array.map (fun l -> Array.of_list (List.rev l)) acc, Predicate.dispatch_evals disp)

(* One document-order sweep filling the builders of the unique predicates
   [subset] (and the population, when [~population] is set); returns the
   builders, the population builder and the evaluations spent.  Nearest
   strict P-ancestors, with their cells, come from one resolver over the
   subset.

   With [matches] (equi-depth), the subset's matched sets were collected
   in pass 1: they are regrouped by node, so the fill performs no
   predicate evaluations at all.  Without it (uniform / explicit grid),
   the sweep's own dispatch table evaluates each node. *)
let sweep plan ~grid ~matches ~population doc subset =
  let k = Array.length subset in
  let n = Document.size doc in
  let per = Array.map (pred_builders plan grid) subset in
  let pop = Position_histogram.builder grid in
  let res = Interval_ops.resolver k in
  let matched_list = Array.make k 0 in
  let feed =
    feed_node grid per res ~pop:(if population then Some pop else None)
      ~matched:matched_list
  in
  (* The fill pass, shared by both grid kinds; [fill_matched v] leaves the
     indices of the predicates matching [v] in [matched_list.(0..m-1)]
     and returns [m]. *)
  let fill_pass fill_matched =
    for v = 0 to n - 1 do
      feed ~start_pos:(Document.start_pos doc v) ~end_pos:(Document.end_pos doc v)
        ~level:(Document.level doc v) (fill_matched v)
    done
  in
  let evals =
    match matches with
    | None ->
      let disp = subset_dispatch plan doc subset in
      fill_pass (fun v ->
          let nmatched = ref 0 in
          Predicate.dispatch_node disp doc v ~f:(fun u ->
              matched_list.(!nmatched) <- u;
              incr nmatched);
          !nmatched);
      Predicate.dispatch_evals disp
    | Some arrays ->
      (* Pass 1's matches regrouped by node. *)
      let by_node = Array.make n [] in
      Array.iteri (fun u -> Array.iter (fun v -> by_node.(v) <- u :: by_node.(v))) arrays;
      fill_pass (fun v ->
          List.fold_left
            (fun m u ->
              matched_list.(m) <- u;
              m + 1)
            0 by_node.(v));
      0
  in
  set_nesting per res;
  (per, pop, evals)

(* Starts and ends of [nodes], interleaved. *)
let node_positions doc nodes =
  Array.init
    (2 * Array.length nodes)
    (fun k ->
      let v = nodes.(k / 2) in
      if k land 1 = 0 then Document.start_pos doc v else Document.end_pos doc v)

(* Uniform grids need a single sweep.  Equi-depth grids need the matched
   node sets before the grid exists, so a first match-only pass collects
   them (also yielding the quantile positions), and the fill pass replays
   the matches without re-evaluating anything.

   Both passes split the work by predicate, not by node: the unique
   predicates are dealt round-robin into [min domains p] subsets, and
   each domain sweeps the whole document for its own subset; the first
   subset also feeds the population.  Every builder is fed by exactly one
   sweep, in document order, so collecting the builders by predicate
   index gives the sequential sweep's builders themselves — the result
   is bit-identical ([to_string] equal) for every domain count, and so is
   the evaluation count; the differential QCheck suite pins both. *)
let build ?grid:grid_override ?(grid_size = 10) ?(grid_kind = `Uniform)
    ?schema_no_overlap ?(with_levels = true) ?(domains = 1) doc preds =
  let t0 = Unix.gettimeofday () in
  let plan = plan ?schema_no_overlap ~with_levels preds in
  let p = Array.length plan.uniq in
  let m = Int.max 1 (Int.min domains p) in
  let subsets =
    Array.init m (fun s -> Array.init ((p - s + m - 1) / m) (fun i -> s + (i * m)))
  in
  (* Predicate [u] sits at index [u / m] of subset [u mod m]. *)
  let collect parts = Array.init p (fun u -> parts.(u mod m).(u / m)) in
  (* Pass 1 (equi-depth only): matched node sets, no grid needed yet.  An
     explicit [?grid] (used by maintenance rebuild comparisons: positions
     past its [max_pos] clamp into the last bucket) always takes the
     single-pass route. *)
  let grid, matches, pass1_evals =
    match (grid_override, grid_kind) with
    | Some g, _ -> (g, None, 0)
    | None, `Uniform ->
      (Grid.create ~size:grid_size ~max_pos:(Document.max_pos doc), None, 0)
    | None, `Equidepth ->
      let per_subset =
        (* lint: allow domain-escape — doc and subsets are read-only shares *)
        Pool.run ~domains:m ~tasks:m (fun s -> collect_matches plan doc subsets.(s))
      in
      let matches = Array.map fst per_subset in
      let arrays = collect matches in
      let grid =
        equidepth_grid plan ~grid_size ~max_pos:(Document.max_pos doc)
          ~positions:(fun u -> node_positions doc arrays.(u))
          ~all_positions:(fun () ->
            node_positions doc (Array.init (Document.size doc) Fun.id))
      in
      (grid, Some matches, Array.fold_left (fun acc (_, e) -> acc + e) 0 per_subset)
  in
  let parts =
    (* lint: allow domain-escape — read-only shares; builders are per-subset *)
    Pool.run ~domains:m ~tasks:m (fun s ->
        sweep plan ~grid
          ~matches:(Option.map (fun per -> per.(s)) matches)
          ~population:(s = 0) doc subsets.(s))
  in
  let _, pop, _ = parts.(0) in
  finish plan ~doc:(Some doc) ~grid ~path:`Fused
    ~passes:(if Option.is_some matches then 2 else 1)
    ~t0
    ~per:(collect (Array.map (fun (per, _, _) -> per) parts))
    ~pop
    ~evals:(Array.fold_left (fun acc (_, _, e) -> acc + e) pass1_evals parts)

(* --- Source 2: the streamed SAX build --------------------------------- *)

(* The streaming build consumes SAX events and never materializes a
   [Document.t]: memory stays O(element depth + summary size) for a
   document of any length.  A node's predicate match status is decidable
   only at its close event (its character data is complete only then), so
   pass A spills in end-position (post-order) order.

   Pass A parses once, dispatches the unique predicates per close event
   by tag, and spills one fixed-size record per node — start, end, level,
   match bitmask — to a temp file in post-order.  The grid is then derived
   (equi-depth scans the spill once more for the quantile positions), and
   pass B replays the spill into the core's builders.

   Both scans read the spill backwards, so the records arrive in reverse
   post-order: every node before its descendants, which is all the
   resolver needs.  Pass B feeds the records to it as they come, exactly
   as the document sweep does, so its pending state is one stack of open
   matches per predicate, O(element depth) however wide the document. *)

let mask_bits = 62 (* mask bits per spill word; keeps every field an int *)
let block_records = 4096 (* spill records per read *)

(* Field [k] of the spill record at byte [off] of [buf]: 0 start, 1 end,
   2 level, 3.. mask words. *)
let field buf off k = Int64.to_int (Bytes.get_int64_le buf (off + (8 * k)))

(* Call [f buf off] for each of the [n] records of the spill at [path],
   last to first, [off] being the record's byte offset in [buf].  Blocks
   of whole records are read from the end of the file towards its start
   and walked backwards. *)
let replay_backwards path ~rec_size ~n f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let buf = Bytes.create (rec_size * Int.min n block_records) in
  let hi = ref n in
  while !hi > 0 do
    let lo = Int.max 0 (!hi - block_records) in
    seek_in ic (lo * rec_size);
    really_input ic buf 0 ((!hi - lo) * rec_size);
    for r = !hi - lo - 1 downto 0 do
      f buf (r * rec_size)
    done;
    hi := lo
  done

(* The unique predicates the record at [off] matches, written to
   [into.(0 .. m-1)]; returns [m]. *)
let record_matches buf off ~nwords into =
  let m = ref 0 in
  for w = 0 to nwords - 1 do
    let bits = ref (field buf off (3 + w)) and u = ref (w * mask_bits) in
    while !bits <> 0 do
      if Int.equal (!bits land 0xff) 0 then begin
        bits := !bits lsr 8;
        u := !u + 8
      end
      else begin
        if !bits land 1 <> 0 then begin
          into.(!m) <- !u;
          incr m
        end;
        bits := !bits lsr 1;
        incr u
      end
    done
  done;
  !m

let unbalanced what = failwith ("Summary.build_stream: unbalanced event stream (" ^ what ^ ")")

let build_stream ?(grid_size = 10) ?(grid_kind = `Uniform) ?schema_no_overlap
    ?(with_levels = true) next preds =
  let t0 = Unix.gettimeofday () in
  let plan = plan ?schema_no_overlap ~with_levels preds in
  let p = Array.length plan.uniq in
  let disp = Predicate.dispatch_detached (Array.to_list plan.uniq) in
  let nwords = (p + mask_bits - 1) / mask_bits in
  let rec_size = 8 * (3 + nwords) in
  let spill_path = Filename.temp_file "xmlest-spill" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove spill_path with Sys_error _ -> ())
  @@ fun () ->
  let n = ref 0 and pos = ref 0 in
  (* --- Pass A: parse, dispatch at close events, spill post-order. ----- *)
  let () =
    let oc = open_out_bin spill_path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    let rbuf = Bytes.create rec_size in
    let words = Array.make (Int.max nwords 1) 0 in
    let set_bit u =
      words.(u / mask_bits) <- words.(u / mask_bits) lor (1 lsl (u mod mask_bits))
    in
    (* Open-element frames; the buffer collects the element's direct
       character data across child elements, dropping blank runs before
       the first, and is trimmed at close exactly as Xml_parser trims
       Elem text. *)
    let f_tag = ref (Array.make 16 "") in
    let f_attrs = ref (Array.make 16 []) in
    let f_start = ref (Array.make 16 0) in
    let f_text = ref (Array.init 16 (fun _ -> Buffer.create 16)) in
    let depth = ref 0 in
    let grow () =
      let d = Array.length !f_tag in
      let bigger a fill = Array.init (2 * d) (fun k -> if k < d then a.(k) else fill k) in
      f_tag := bigger !f_tag (fun _ -> "");
      f_attrs := bigger !f_attrs (fun _ -> []);
      f_start := bigger !f_start (fun _ -> 0);
      f_text := bigger !f_text (fun _ -> Buffer.create 16)
    in
    let rec loop () =
      match next () with
      | None ->
        if !depth > 0 then
          unbalanced (Printf.sprintf "%d element(s) still open at the end" !depth)
      | Some ev ->
        (match ev with
        | Sax.Open { tag; attrs } ->
          if Int.equal !depth (Array.length !f_tag) then grow ();
          !f_tag.(!depth) <- tag;
          !f_attrs.(!depth) <- attrs;
          !f_start.(!depth) <- !pos;
          Buffer.clear !f_text.(!depth);
          incr pos;
          incr depth
        | Sax.Text s ->
          if !depth > 0 then begin
            let b = !f_text.(!depth - 1) in
            if not (Int.equal (Buffer.length b) 0 && Sax.is_blank s) then
              Buffer.add_string b s
          end
        | Sax.Close ->
          if Int.equal !depth 0 then unbalanced "close without a matching open";
          decr depth;
          let d = !depth in
          Array.fill words 0 (Array.length words) 0;
          Predicate.dispatch_named disp ~tag:!f_tag.(d) ~attrs:!f_attrs.(d)
            ~text:(Sax.trim_text (Buffer.contents !f_text.(d)))
            ~level:d ~f:set_bit;
          Bytes.set_int64_le rbuf 0 (Int64.of_int !f_start.(d));
          Bytes.set_int64_le rbuf 8 (Int64.of_int !pos);
          Bytes.set_int64_le rbuf 16 (Int64.of_int d);
          for w = 0 to nwords - 1 do
            Bytes.set_int64_le rbuf (24 + (8 * w)) (Int64.of_int words.(w))
          done;
          output_bytes oc rbuf;
          incr pos;
          incr n);
        loop ()
    in
    loop ()
  in
  if !n = 0 then failwith "Summary.build_stream: empty event stream";
  let max_pos = !pos - 1 in
  let replay f = replay_backwards spill_path ~rec_size ~n:!n f in
  let matched_list = Array.make p 0 in
  let grid, passes =
    match grid_kind with
    | `Uniform -> (Grid.create ~size:grid_size ~max_pos, 2)
    | `Equidepth ->
      let acc = Array.make p [] in
      replay (fun buf off ->
          for m = 0 to record_matches buf off ~nwords matched_list - 1 do
            let u = matched_list.(m) in
            acc.(u) <- field buf off 1 :: field buf off 0 :: acc.(u)
          done);
      ( equidepth_grid plan ~grid_size ~max_pos
          ~positions:(fun u -> Array.of_list acc.(u))
          ~all_positions:(fun () -> Array.init (2 * !n) Fun.id),
        3 )
  in
  (* --- Pass B: replay the spill into the builders. -------------------- *)
  let per = Array.init p (pred_builders plan grid) in
  let pop = Position_histogram.builder grid in
  let res = Interval_ops.resolver p in
  let feed = feed_node grid per res ~pop:(Some pop) ~matched:matched_list in
  replay (fun buf off ->
      feed ~start_pos:(field buf off 0) ~end_pos:(field buf off 1)
        ~level:(field buf off 2)
        (record_matches buf off ~nwords matched_list));
  set_nesting per res;
  finish plan ~doc:None ~grid ~path:`Streamed ~passes ~t0 ~per ~pop
    ~evals:(Predicate.dispatch_evals disp)

let build_stream_file ?grid_size ?grid_kind ?schema_no_overlap ?with_levels path
    preds =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let sax = Sax.of_channel ic in
  build_stream ?grid_size ?grid_kind ?schema_no_overlap ?with_levels
    (fun () -> Sax.next sax)
    preds

let stats t = t.stats

let grid t = t.grid
let document t = t.doc

(* --- Lazy adoption of a reopened store ------------------------------- *)

(* [load_store] indexes a store's sections by name and decodes none of
   them.  A section is adopted — its syntax parsed, its runs validated,
   its histograms built, its entry and catalog histogram registered —
   the first time a lookup names its predicate, and a whole-summary
   operation adopts them all first.  Adopting mutates [entries] and the
   catalog, so parallel estimation adopts everything before it spawns. *)

exception Corrupt_store = Store.Corrupt

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt_store m)) fmt

let population t =
  match t.pop with
  | Adopted p -> p
  | In_store st ->
    let at, v = Store.population st in
    let p = Position_histogram.of_nonzero ~grid:t.grid at v in
    t.pop <- Adopted p;
    p

(* Section [k] of [st], named [key], into a registered entry.  Totals,
   coverage populations and per-cell coverage totals are derived here,
   exactly as [finish] derives them. *)
let adopt t st key k =
  let s = Store.section st k in
  let pred =
    match Predicate.of_syntax s.Store.syntax with
    | Error e -> corrupt "section %S: bad predicate syntax: %s" key e
    | Ok p ->
      if not (String.equal (Predicate.name p) key) then
        corrupt "section %S: its syntax is the predicate %S" key (Predicate.name p);
      if not (Option.equal String.equal (Predicate.tag_of p) s.Store.tag) then
        corrupt "section %S: its tag does not match its syntax" key;
      p
  in
  let at, v = s.Store.hist in
  let e =
    {
      pred;
      hist = Position_histogram.of_nonzero ~grid:t.grid at v;
      no_overlap = s.Store.no_overlap;
      cvg =
        Option.map
          (fun entries ->
            Coverage_histogram.of_parts ~grid:t.grid
              ~populations:(population_cells t.grid (population t))
              ~entries)
          s.Store.cvg;
      lvl = Option.map Level_histogram.of_counts s.Store.lvl;
    }
  in
  Hashtbl.replace t.entries key e;
  Catalog.add t.hcat ~key e.hist;
  e

let find t pred =
  let key = Predicate.name pred in
  match Hashtbl.find_opt t.entries key with
  | Some _ as found -> found
  | None -> (
    match t.store with
    | None -> None
    | Some st -> Option.map (adopt t st key) (Store.find st key))

(* Adopt the population and every section, then fill in the predicate
   list (one per section, duplicates included) and drop the store. *)
let adopt_all t =
  match t.store with
  | None -> ()
  | Some st ->
    ignore (population t);
    t.preds <-
      List.init (Store.length st) (fun k ->
          let key = Store.name st k in
          match Hashtbl.find_opt t.entries key with
          | Some e -> e.pred
          | None -> (adopt t st key k).pred);
    t.store <- None

let predicates t =
  adopt_all t;
  t.preds

(* --- Incremental maintenance ------------------------------------------ *)

(* The maintenance engine is created lazily on the first [apply]: one
   document-order sweep seeds its integer ground truth (coverage tables,
   nesting-pair and level counts) and copies the document once, while the
   position histograms of the existing entries are adopted as live
   objects and mutated in place from then on.  The histograms built on
   demand so far are handed over too, as [histogram_in] hands over the
   ones built later.  This leaves the construction paths completely
   untouched. *)
let maint_state t =
  match t.maint with
  | Some st -> st
  | None -> (
    match t.doc with
    | None ->
      failwith
        "Summary.apply: no document is attached (summary loaded from disk?)"
    | Some doc ->
      let seen = Hashtbl.create 16 in
      let entries =
        List.filter_map
          (fun pred ->
            let key = Predicate.name pred in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              match Hashtbl.find_opt t.entries key with
              | Some e -> Some (pred, e.hist)
              | None -> None
            end)
          t.preds
      in
      let st =
        Apply.init ~grid:t.grid ~pop:(population t) ~with_levels:t.with_levels ~entries
          doc
      in
      Hashtbl.iter
        (fun key p -> Option.iter (Apply.track st p) (Catalog.find t.hcat key))
        t.untracked;
      Hashtbl.reset t.untracked;
      t.maint <- Some st;
      st)

let staleness t = Option.map Apply.staleness t.maint

(* Full fused rebuild from the current document revision, swapped into
   the existing summary in place: the grid is re-derived with the same
   kind and size, so uniform grids regain dense position coverage after
   appends widened the position space. *)
let rebuild t =
  match t.doc with
  | None -> ()
  | Some doc ->
    let grid_kind = if Grid.is_uniform t.grid then `Uniform else `Equidepth in
    let s =
      build ~grid_size:t.grid.Grid.size ~grid_kind ~with_levels:t.with_levels
        doc t.preds
    in
    t.grid <- s.grid;
    t.pop <- s.pop;
    t.hcat <- s.hcat;
    t.stats <- s.stats;
    Hashtbl.reset t.entries;
    Hashtbl.iter (Hashtbl.add t.entries) s.entries;
    Hashtbl.reset t.lph_cache;
    t.maint <- None

(* Bring the summary in line with the engine's working copy, which
   becomes the summary's document (the document given to [build] is
   never edited).
   Regenerate the derived parts of every entry from the maintained ground
   truth.  The position histogram object is untouched (it was mutated in
   place, version counters bumped); coverage and level histograms are
   rebuilt from exact counts through the same finalization the streaming
   builders use, and the no-overlap flag follows the exact nesting-pair
   count (schema overlap overrides from the original build are not
   preserved under maintenance). *)
let commit t st =
  t.doc <- Some (Apply.document st);
  let populations = Apply.populations st in
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.entries r.Apply.r_name with
      | None -> ()
      | Some e ->
        let no_overlap = r.Apply.r_no_overlap in
        let cvg =
          if no_overlap && r.Apply.r_count > 0 then
            Some
              (Coverage_histogram.of_parts ~grid:t.grid ~populations
                 ~entries:r.Apply.r_coverage)
          else None
        in
        let lvl =
          if t.with_levels then Some (Level_histogram.of_counts r.Apply.r_levels)
          else e.lvl
        in
        Hashtbl.replace t.entries r.Apply.r_name { e with no_overlap; cvg; lvl })
    (Apply.results st);
  (* The engine maintained the base entries and the on-demand histograms
     it tracks; any other catalog key was built from the pre-edit document
     and is stale, and so are the lazy level-position caches.  Kept
     coefficient slots re-derive on demand via their bumped versions. *)
  List.iter
    (fun key ->
      if not (Hashtbl.mem t.entries key || Apply.tracks st key) then
        Catalog.remove t.hcat key)
    (Catalog.keys t.hcat);
  Hashtbl.reset t.lph_cache

(* The engine mutates the shared histograms edit by edit, so when an
   update is rejected the edits before it are already in them: commit
   that prefix before the exception propagates. *)
let apply ?(policy = `Never) t updates =
  let st = maint_state t in
  Fun.protect
    ~finally:(fun () -> commit t st)
    (fun () -> List.iter (Apply.apply_update st) updates);
  if Staleness.needs_rebuild policy (Apply.staleness st) then rebuild t

(* Resolution order: catalog entry, then on-demand cache, then (for
   boolean combinations) compound estimation over resolved parts, and for
   unknown leaves a build from the document that is cached for reuse.
   The catalog consulted (and mutated, by memoized coefficients and
   on-demand builds) is an explicit argument so batch estimation can hand
   each domain its own scratch; [histogram] passes the summary's own.  A
   build into the summary's own catalog is handed to the maintenance
   engine (at once, or when the engine starts), which keeps it exact
   under later edits; a domain's scratch build is never tracked, so
   engine state stays on the calling domain. *)
let histogram_in hcat t pred =
  let lookup p =
    match find t p with
    | Some e -> Some e.hist
    | None -> Catalog.find hcat (Predicate.name p)
  in
  (* A boolean combination is decomposed (per Sec. 3.4) only when all its
     non-boolean leaves are resolvable; otherwise the whole predicate is
     treated as a new base predicate and built from the document. *)
  let rec leaves_known p =
    match p with
    | Predicate.True -> true
    | Predicate.And (a, b) | Predicate.Or (a, b) -> leaves_known a && leaves_known b
    | Predicate.Not a -> leaves_known a
    | leaf -> lookup leaf <> None
  in
  let build_and_cache p =
    match t.doc with
    | None ->
      (* a reopened store whose table names a section wrongly would look
         like it lacks the predicate: check every section first *)
      adopt_all t;
      failwith
        (Printf.sprintf
           "Summary: predicate %s is not in the catalog and no document is \
            attached (summary loaded from disk?)"
           (Predicate.name p))
    | Some doc ->
      let h = Position_histogram.build doc ~grid:t.grid p in
      Catalog.add hcat ~key:(Predicate.name p) h;
      (if hcat == t.hcat then
         match t.maint with
         | Some st -> Apply.track st p h
         | None -> Hashtbl.replace t.untracked (Predicate.name p) p);
      h
  in
  let base p =
    match lookup p with
    | Some h -> Some h
    | None -> (
      match p with
      | Predicate.True -> None
      | Predicate.And _ | Predicate.Or _ | Predicate.Not _ ->
        if leaves_known p then None (* decompose *) else Some (build_and_cache p)
      | leaf -> Some (build_and_cache leaf))
  in
  match base pred with
  | Some h -> h
  | None -> Compound.estimate ~population:(population t) ~base pred

let histogram t pred = histogram_in t.hcat t pred

let coverage t pred =
  match find t pred with Some e -> e.cvg | None -> None

let level t pred =
  match (find t pred, t.doc) with
  | Some e, _ -> e.lvl
  | None, Some doc ->
    if t.with_levels then Some (Level_histogram.build doc pred) else None
  | None, None -> None

let has_no_overlap t pred =
  match find t pred with Some e -> e.no_overlap | None -> false

let node_count t pred = Position_histogram.total (histogram t pred)

(* Level-position histograms are built lazily per predicate and cached:
   they are only consulted under the Cell_level_scaled child mode.  As
   with [histogram_in], the cache is an explicit argument for the sake of
   domain-local scratch. *)
let position_levels_in lph_cache t pred =
  match t.doc with
  | None -> None
  | Some doc -> (
    let key = "lph:" ^ Predicate.name pred in
    match Hashtbl.find_opt lph_cache key with
    | Some lph -> Some lph
    | None ->
      let lph = Level_position_histogram.build doc ~grid:t.grid pred in
      Hashtbl.add lph_cache key lph;
      Some lph)

let hist_catalog t = t.hcat

let catalog_in hcat lph_cache t =
  {
    Twig_estimator.hist = histogram_in hcat t;
    coverage = coverage t;
    level = level t;
    position_levels = position_levels_in lph_cache t;
    desc_coefs =
      (fun p -> Catalog.descendant_coefficients hcat (Predicate.name p));
    anc_coefs =
      (fun p -> Catalog.ancestor_coefficients hcat (Predicate.name p));
  }

let catalog t = catalog_in t.hcat t.lph_cache t

let estimate ?options t pattern = Twig_estimator.estimate ?options (catalog t) pattern

(* One domain's scratch for a batch estimation: a fresh catalog holding
   the same (never-mutated-during-estimation) histogram objects as the
   summary's, plus a fresh level-position cache, so coefficient
   memoization and on-demand builds stay domain-local.  Built
   sequentially, before any domain is spawned. *)
let scratch_view t =
  let hcat = make_hist_catalog () in
  List.iter
    (fun key ->
      match Catalog.find t.hcat key with
      | Some h -> Catalog.add hcat ~key h
      | None -> ())
    (Catalog.keys t.hcat);
  (hcat, Hashtbl.create 8)

(* Estimates are pure functions of the (read-only) summary state —
   memoized coefficients and on-demand histograms are deterministic — so
   fanning the workload across domains returns, in input order, exactly
   the floats [List.map (estimate t)] would: the differential QCheck
   suite pins this bit for bit.  Scratch work is not written back to the
   shared summary caches. *)
let estimate_batch ?options ?(domains = 1) t patterns =
  match patterns with
  | [] -> []
  | _ when domains <= 1 -> List.map (estimate ?options t) patterns
  | _ ->
    adopt_all t;
    let pats = Array.of_list patterns in
    let n = Array.length pats in
    let ntasks = Int.min domains n in
    let views = Array.init ntasks (fun _ -> scratch_view t) in
    let per_chunk =
      (* lint: allow domain-escape — summary is read-only; views are per-task *)
      Pool.run ~domains ~tasks:ntasks (fun k ->
          let lo = k * n / ntasks and hi = (k + 1) * n / ntasks in
          let hcat, lph = views.(k) in
          let cat = catalog_in hcat lph t in
          Array.init (hi - lo) (fun i ->
              Twig_estimator.estimate ?options cat pats.(lo + i)))
    in
    List.concat_map Array.to_list (Array.to_list per_chunk)

let explain ?options t pattern =
  Twig_estimator.estimate_trace ?options (catalog t) pattern

let estimate_string ?options t query =
  estimate ?options t (Pattern_parser.pattern_exn query)

(* Static analysis before estimation: with the document at hand its tag
   list is the complete schema (an absent tag proves a 0 answer); a loaded
   summary only knows the tags its catalog predicates pin, so absence is a
   warning, not a proof. *)
let check t pattern =
  match t.doc with
  | Some doc ->
    Pattern_check.check ~known_tags:(Document.distinct_tags doc)
      ~tags_exhaustive:true pattern
  | None ->
    let tags =
      match t.store with
      | Some st -> Store.tags st
      | None -> List.filter_map Predicate.tag_of t.preds
    in
    Pattern_check.check ~known_tags:tags ~tags_exhaustive:false pattern

let estimate_checked ?options t pattern =
  let diags = check t pattern in
  if Pattern_check.unsatisfiable diags then (0.0, diags)
  else (estimate ?options t pattern, diags)

let storage_bytes t =
  adopt_all t;
  Hashtbl.fold
    (fun _ e acc ->
      acc
      + Position_histogram.storage_bytes e.hist
      + (match e.cvg with Some c -> Coverage_histogram.storage_bytes c | None -> 0)
      + match e.lvl with Some l -> Level_histogram.storage_bytes l | None -> 0)
    t.entries 0

let pp_stats ppf t =
  adopt_all t;
  Format.fprintf ppf "%-32s %10s %12s %8s@." "predicate" "count" "overlap"
    "bytes";
  List.iter
    (fun pred ->
      match find t pred with
      | None -> ()
      | Some e ->
        let bytes =
          Position_histogram.storage_bytes e.hist
          + match e.cvg with Some c -> Coverage_histogram.storage_bytes c | None -> 0
        in
        Format.fprintf ppf "%-32s %10.0f %12s %8d@." (Predicate.name pred)
          (Position_histogram.total e.hist)
          (if e.no_overlap then "no overlap" else "overlap")
          bytes)
    t.preds

(* --- Canonical printer ------------------------------------------------ *)

(* [to_string] prints every float of a summary at %.17g, one item per
   line, so two summaries print equal exactly when their grids, flags and
   cells agree bit for bit.  It is a comparison key, not a file format:
   nothing parses it back, and the only persistence path is the [.xsum]
   store below.

   xmlest-summary 1
   grid (uniform <size> <max_pos> | boundaries <size> <max_pos> <b1..b_{g-1}>)
   population <n>        followed by n lines "i j count"
   predicates <k>        followed by k blocks:
     predicate <0|1 no-overlap> <predicate s-expression>
     hist <n>            followed by n lines "i j count"
     coverage (none | <n>)   n lines "covered covering fraction"
     level (none | <m> <c0> ... <c_{m-1}>)
   end *)

let version_line = "xmlest-summary 1"

let output_hist buf h =
  let cells = ref [] in
  Position_histogram.iter_nonzero h (fun ~i ~j v -> cells := (i, j, v) :: !cells);
  let cells = List.rev !cells in
  Buffer.add_string buf (Printf.sprintf "%d\n" (List.length cells));
  List.iter
    (fun (i, j, v) -> Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" i j v))
    cells

let to_string t =
  adopt_all t;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (version_line ^ "\n");
  let g = t.grid in
  (if Grid.is_uniform g then
     Buffer.add_string buf
       (Printf.sprintf "grid uniform %d %d\n" g.Grid.size g.Grid.max_pos)
   else begin
     Buffer.add_string buf
       (Printf.sprintf "grid boundaries %d %d" g.Grid.size g.Grid.max_pos);
     for i = 1 to g.Grid.size - 1 do
       Buffer.add_string buf (Printf.sprintf " %d" g.Grid.boundaries.(i))
     done;
     Buffer.add_string buf "\n"
   end);
  Buffer.add_string buf "population ";
  output_hist buf (population t);
  Buffer.add_string buf (Printf.sprintf "predicates %d\n" (List.length t.preds));
  List.iter
    (fun pred ->
      match find t pred with
      | None -> ()
      | Some e ->
        Buffer.add_string buf
          (Printf.sprintf "predicate %d %s\n"
             (if e.no_overlap then 1 else 0)
             (Predicate.to_syntax e.pred));
        Buffer.add_string buf "hist ";
        output_hist buf e.hist;
        (match e.cvg with
        | None -> Buffer.add_string buf "coverage none\n"
        | Some cvg ->
          let entries =
            Coverage_histogram.fold_entries cvg ~init:[]
              ~f:(fun acc ~covered ~covering frac -> (covered, covering, frac) :: acc)
          in
          let entries = List.rev entries in
          Buffer.add_string buf (Printf.sprintf "coverage %d\n" (List.length entries));
          List.iter
            (fun (covered, covering, frac) ->
              Buffer.add_string buf
                (Printf.sprintf "%d %d %.17g\n" covered covering frac))
            entries);
        (match e.lvl with
        | None -> Buffer.add_string buf "level none\n"
        | Some lvl ->
          let counts = Level_histogram.counts lvl in
          Buffer.add_string buf (Printf.sprintf "level %d" (Array.length counts));
          Array.iter
            (fun c -> Buffer.add_string buf (Printf.sprintf " %.17g" c))
            counts;
          Buffer.add_string buf "\n"))
    t.preds;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* --- The .xsum store ------------------------------------------------------ *)

(* [Store] moves names, strings and arrays; the translation to and from
   live histograms happens here, where the entry record is in scope.  A
   histogram is saved as its non-zero cells and coverage as its entries,
   through the public query surface ([nonzero], [fold_entries]); every
   derived number is recomputed by [adopt]. *)

let save_store t path =
  adopt_all t;
  let sections =
    List.filter_map
      (fun pred ->
        Option.map
          (fun e ->
            {
              Store.name = Predicate.name e.pred;
              tag = Predicate.tag_of e.pred;
              syntax = Predicate.to_syntax e.pred;
              no_overlap = e.no_overlap;
              hist = Position_histogram.nonzero e.hist;
              cvg =
                Option.map
                  (fun cvg ->
                    List.rev
                      (Coverage_histogram.fold_entries cvg ~init:[]
                         ~f:(fun acc ~covered ~covering frac ->
                           (covered, covering, frac) :: acc)))
                  e.cvg;
              lvl = Option.map Level_histogram.counts e.lvl;
            })
          (find t pred))
      t.preds
  in
  Store.write path ~grid:t.grid
    ~population:(Position_histogram.nonzero (population t))
    sections

let load_store path =
  match Store.read path with
  | Error e -> Error e
  | Ok st ->
    Ok
      {
        doc = None;
        grid = Store.grid st;
        preds = [];
        entries = Hashtbl.create 16;
        pop = In_store st;
        with_levels = Store.has_levels st;
        hcat = make_hist_catalog ();
        lph_cache = Hashtbl.create 8;
        stats = None;
        maint = None;
        untracked = Hashtbl.create 8;
        store = Some st;
      }
