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
  acc : Apply.accumulators option;
      (* the build's accumulators behind [no_overlap], [cvg] and [lvl],
         kept while a document is attached for maintenance to edit *)
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

(* Both builds — the fused document build and the streamed SAX build —
   differ only in their record source: the document's nodes in
   pre-order, or the spill read backwards.  Everything after it is
   written once: the predicates are deduplicated, the grid derived, one
   builder set filled and finished into entries.  Every builder is an
   order-insensitive exact integer accumulator, so the two sources'
   different orders (pre-order, reverse post-order) finish into
   bit-identical summaries. *)

module Pool = Xmlest_parallel.Pool

type plan = {
  plan_preds : Predicate.t list;  (* as given, duplicates included *)
  uniq : Predicate.t array;  (* unique by name, in first-occurrence order *)
  occurrences : int array;  (* the [uniq] index of every [plan_preds] element *)
  plan_levels : bool;
}

let plan ~with_levels preds =
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
  {
    plan_preds = preds;
    uniq = Array.of_list (List.rev !uniq);
    occurrences = Array.of_list occurrences;
    plan_levels = with_levels;
  }

(* A record source makes one pass over its nodes, ancestors first, and
   calls [f ~start_pos ~end_pos ~level m] for each, with the indices of
   the predicates it matches in [matched.(0 .. m-1)]. *)
type source =
  matched:int array ->
  (start_pos:int -> end_pos:int -> level:int -> int -> unit) ->
  unit

(* Each of the [k] predicates' match starts and ends, in one pass. *)
let match_positions k (source : source) =
  let acc = Array.make k [] in
  let matched = Array.make k 0 in
  source ~matched (fun ~start_pos ~end_pos ~level:_ m ->
      for x = 0 to m - 1 do
        let u = matched.(x) in
        acc.(u) <- end_pos :: start_pos :: acc.(u)
      done);
  Array.map Array.of_list acc

(* Equi-depth boundaries are drawn from the starts and ends of the nodes
   matching the base predicates — [positions.(u)] for unique predicate
   [u], sampled once per occurrence in the predicate list, so duplicates
   count twice — which concentrates bucket resolution where the
   catalog's elements live.  (Over the whole document the position
   population is perfectly dense — one node per position pair — and
   equi-depth degenerates to uniform.)  Every position is the fallback
   when the predicates match nothing. *)
let equidepth_grid plan ~grid_size ~max_pos ~positions ~all_positions =
  let samples = Array.map (Array.get positions) plan.occurrences in
  let sample =
    if Array.for_all (fun a -> Array.length a = 0) samples then all_positions ()
    else Array.concat (Array.to_list samples)
  in
  Grid.equidepth ~size:grid_size ~max_pos ~positions:sample

(* One predicate's builders: its position histogram's and the rest. *)
type pred_builders = { pb_hist : Position_histogram.builder; pb_acc : Apply.accumulators }

(* One pass of [source] into fresh builders over [grid] for its [k]
   predicates, and into a population builder fed only when [population]
   is set.  Each record's cell goes to the population and to the
   builders of its matches, and the cells of its nearest strict
   P-ancestors, from one resolver, to the coverage builders; the
   resolver also counts each predicate's nesting pairs. *)
let fill plan grid ~population k (source : source) =
  let per =
    Array.init k (fun _ ->
        {
          pb_hist = Position_histogram.builder grid;
          pb_acc =
            {
              Apply.coverage = Coverage_histogram.builder grid;
              levels = (if plan.plan_levels then Some (Level_histogram.builder ()) else None);
              pairs = 0;
            };
        })
  in
  let pop = Position_histogram.builder grid in
  let res = Interval_ops.resolver k in
  let matched = Array.make k 0 in
  let on_nearest u ~covered ~covering =
    Coverage_histogram.feed per.(u).pb_acc.coverage ~covered ~covering
  in
  source ~matched (fun ~start_pos ~end_pos ~level m ->
      let i, j = Grid.cell_of_node grid ~start_pos ~end_pos in
      let cell = Grid.index grid ~i ~j in
      if population then Position_histogram.feed_cell pop cell;
      Interval_ops.resolve res ~start_pos ~end_pos ~cell ~matched ~nmatched:m
        ~on_nearest;
      for x = 0 to m - 1 do
        let pb = per.(matched.(x)) in
        Position_histogram.feed_cell pb.pb_hist cell;
        match pb.pb_acc.levels with Some lb -> Level_histogram.feed lb level | None -> ()
      done);
  Array.iteri (fun u pb -> pb.pb_acc.pairs <- Interval_ops.nesting_pairs res u) per;
  (per, pop)

(* The population's dense per-cell counts, the normalizer every coverage
   histogram is finished with. *)
let population_cells grid pop =
  let g = grid.Grid.size in
  Array.init (Grid.cells grid) (fun c ->
      Position_histogram.get pop ~i:(c / g) ~j:(c mod g))

(* A predicate's entry from its position histogram and accumulators,
   kept in it when [keep]: the predicate has the no-overlap property iff
   it does not nest, and coverage is kept when it has that property and
   matched at least one node, normalized by the population's per-cell
   counts.  The builds and every maintenance commit finish through here. *)
let finish_entry ~populations ~keep pred hist (acc : Apply.accumulators) =
  let no_overlap = Int.equal acc.pairs 0 in
  {
    pred;
    hist;
    no_overlap;
    cvg =
      (if no_overlap && Position_histogram.total hist > 0.0 then
         Some (Coverage_histogram.finish acc.coverage ~populations)
       else None);
    lvl = Option.map Level_histogram.finish acc.levels;
    acc = (if keep then Some acc else None);
  }

(* Builders ([per] by unique predicate, [pop] the population) into
   entries and a summary.  A summary over a document keeps the
   accumulators for maintenance; a streamed one drops them. *)
let finish plan ~doc ~grid ~path ~passes ~t0 ~per ~pop ~evals =
  let pop = Position_histogram.finish pop in
  let populations = population_cells grid pop in
  let keep = Option.is_some doc in
  let entries = Hashtbl.create 64 in
  Array.iteri
    (fun u pred ->
      let pb = per.(u) in
      Hashtbl.add entries (Predicate.name pred)
        (finish_entry ~populations ~keep pred (Position_histogram.finish pb.pb_hist) pb.pb_acc))
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

(* --- Source 1: the document, sequential or over domains -------------- *)

(* The document's nodes in pre-order, each decided by the dispatch table
   [disp], whose predicates the matched indices refer to. *)
let document_source doc disp : source =
 fun ~matched f ->
  for v = 0 to Document.size doc - 1 do
    (* A counter per node: one hoisted out of the loop made the
       two-domain DBLP build slower and far less steady. *)
    let m = ref 0 in
    Predicate.dispatch_node disp doc v ~f:(fun k ->
        matched.(!m) <- k;
        incr m);
    f ~start_pos:(Document.start_pos doc v) ~end_pos:(Document.end_pos doc v)
      ~level:(Document.level doc v) !m
  done

(* Uniform grids need one pass, filling the builders.  Equi-depth grids
   need the matched positions before the grid exists, so a first pass
   collects them, dispatching the predicates just as the fill pass does
   again.

   Every pass splits the work by predicate, not by node: the unique
   predicates are dealt round-robin into [min domains p] subsets, and
   each domain passes over the whole document for its own subset, with a
   dispatch table of its own (dispatch state is mutable); the first
   subset also feeds the population.  Every builder is fed by exactly one
   pass, in document order, so collecting the builders by predicate
   index gives the sequential build's builders themselves — the result
   is bit-identical ([to_string] equal) for every domain count, and so is
   the evaluation count; the differential QCheck suite pins both. *)
let build ?grid:grid_override ?(grid_size = 10) ?(grid_kind = `Uniform)
    ?(with_levels = true) ?(domains = 1) doc preds =
  let t0 = Unix.gettimeofday () in
  let plan = plan ~with_levels preds in
  let p = Array.length plan.uniq in
  let m = Int.max 1 (Int.min domains p) in
  let subsets =
    Array.init m (fun s -> Array.init ((p - s + m - 1) / m) (fun i -> s + (i * m)))
  in
  (* Predicate [u] sits at index [u / m] of subset [u mod m]. *)
  let collect parts = Array.init p (fun u -> parts.(u mod m).(u / m)) in
  (* [f s k source] for each subset [s] of [k] predicates, on its own
     domain, and the evaluations spent by all of them. *)
  let pass f =
    let parts =
      (* lint: allow domain-escape — doc and subsets are read-only shares *)
      Pool.run ~domains:m ~tasks:m (fun s ->
          let subset = subsets.(s) in
          let disp =
            Predicate.dispatch doc (Array.to_list (Array.map (Array.get plan.uniq) subset))
          in
          let r = f s (Array.length subset) (document_source doc disp) in
          (r, Predicate.dispatch_evals disp))
    in
    (Array.map fst parts, Array.fold_left (fun acc (_, e) -> acc + e) 0 parts)
  in
  (* An explicit [?grid] (used by maintenance rebuild comparisons:
     positions past its [max_pos] clamp into the last bucket) always
     takes the one-pass route. *)
  let grid, passes, grid_evals =
    match (grid_override, grid_kind) with
    | Some g, _ -> (g, 1, 0)
    | None, `Uniform -> (Grid.create ~size:grid_size ~max_pos:(Document.max_pos doc), 1, 0)
    | None, `Equidepth ->
      let positions, evals = pass (fun _ k source -> match_positions k source) in
      let grid =
        equidepth_grid plan ~grid_size ~max_pos:(Document.max_pos doc)
          ~positions:(collect positions)
          ~all_positions:(fun () ->
            Array.init
              (2 * Document.size doc)
              (fun k ->
                if k land 1 = 0 then Document.start_pos doc (k / 2)
                else Document.end_pos doc (k / 2)))
      in
      (grid, 2, evals)
  in
  let parts, evals =
    pass (fun s k source -> fill plan grid ~population:(s = 0) k source)
  in
  finish plan ~doc:(Some doc) ~grid ~path:`Fused ~passes ~t0
    ~per:(collect (Array.map fst parts))
    ~pop:(snd parts.(0))
    ~evals:(grid_evals + evals)

(* --- Source 2: the spill of the streamed SAX build ------------------- *)

(* The streaming build consumes SAX events and never materializes a
   [Document.t]: memory stays O(element depth + summary size) for a
   document of any length.  A node's predicate match status is decidable
   only at its close event (its character data is complete only then), so
   pass A spills in end-position (post-order) order.

   Pass A parses once, dispatches the unique predicates per close event
   by tag, and spills one fixed-size record per node — start, end, level,
   match bitmask — to a temp file in post-order.  The spill is then the
   record source of the shared core: equi-depth grids take their
   positions from one pass over it, and the fill is one more.

   The source reads the spill backwards, so the records arrive in reverse
   post-order: every node before its descendants, which is all the
   resolver needs.  The fill feeds the records to it as they come, so its
   pending state is one stack of open matches per predicate, O(element
   depth) however wide the document. *)

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

(* The [n] records of the spill at [path], last to first. *)
let spill_source path ~rec_size ~n ~nwords : source =
 fun ~matched f ->
  replay_backwards path ~rec_size ~n (fun buf off ->
      f ~start_pos:(field buf off 0) ~end_pos:(field buf off 1)
        ~level:(field buf off 2)
        (record_matches buf off ~nwords matched))

let unbalanced what = failwith ("Summary.build_stream: unbalanced event stream (" ^ what ^ ")")

let build_stream ?(grid_size = 10) ?(grid_kind = `Uniform) ?(with_levels = true) next
    preds =
  let t0 = Unix.gettimeofday () in
  let plan = plan ~with_levels preds in
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
    (* Records collect in one block of [block_records], written whole:
       the blocks [replay_backwards] reads. *)
    let block = Bytes.create (rec_size * block_records) in
    let filled = ref 0 in
    let put k v = Bytes.set_int64_le block (!filled + (8 * k)) (Int64.of_int v) in
    let words = Array.make (Int.max nwords 1) 0 in
    let set_bit u =
      words.(u / mask_bits) <- words.(u / mask_bits) lor (1 lsl (u mod mask_bits))
    in
    (* Open-element frames: the tag's dispatch id, the attributes and the
       start position.  Where a predicate reads the element's text, the
       buffer collects its direct character data across child elements,
       dropping blank runs before the first, and is trimmed at close
       exactly as Xml_parser trims Elem text; elsewhere text is skipped. *)
    let f_id = ref (Array.make 16 0) in
    let f_attrs = ref (Array.make 16 []) in
    let f_start = ref (Array.make 16 0) in
    let f_text = ref (Array.init 16 (fun _ -> Buffer.create 16)) in
    let depth = ref 0 in
    let grow () =
      let d = Array.length !f_id in
      let bigger a fill = Array.init (2 * d) (fun k -> if k < d then a.(k) else fill k) in
      f_id := bigger !f_id (fun _ -> 0);
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
          if Int.equal !depth (Array.length !f_id) then grow ();
          !f_id.(!depth) <- Predicate.tag_id disp tag;
          !f_attrs.(!depth) <- attrs;
          !f_start.(!depth) <- !pos;
          Buffer.clear !f_text.(!depth);
          incr pos;
          incr depth
        | Sax.Text s ->
          if !depth > 0 && Predicate.needs_text disp !f_id.(!depth - 1) then begin
            let b = !f_text.(!depth - 1) in
            if not (Int.equal (Buffer.length b) 0 && Sax.is_blank s) then
              Buffer.add_string b s
          end
        | Sax.Close ->
          if Int.equal !depth 0 then unbalanced "close without a matching open";
          decr depth;
          let d = !depth in
          let id = !f_id.(d) in
          for w = 0 to nwords - 1 do
            words.(w) <- 0
          done;
          Predicate.dispatch_id disp ~tag:id ~attrs:!f_attrs.(d)
            ~text:
              (if Predicate.needs_text disp id then
                 Sax.trim_text (Buffer.contents !f_text.(d))
               else "")
            ~level:d ~f:set_bit;
          if Int.equal !filled (Bytes.length block) then begin
            output oc block 0 !filled;
            filled := 0
          end;
          put 0 !f_start.(d);
          put 1 !pos;
          put 2 d;
          for w = 0 to nwords - 1 do
            put (3 + w) words.(w)
          done;
          filled := !filled + rec_size;
          incr pos;
          incr n);
        loop ()
    in
    loop ();
    output oc block 0 !filled
  in
  if !n = 0 then failwith "Summary.build_stream: empty event stream";
  let max_pos = !pos - 1 in
  let source = spill_source spill_path ~rec_size ~n:!n ~nwords in
  let grid, passes =
    match grid_kind with
    | `Uniform -> (Grid.create ~size:grid_size ~max_pos, 2)
    | `Equidepth ->
      ( equidepth_grid plan ~grid_size ~max_pos ~positions:(match_positions p source)
          ~all_positions:(fun () -> Array.init (2 * !n) Fun.id),
        3 )
  in
  let per, pop = fill plan grid ~population:true p source in
  finish plan ~doc:None ~grid ~path:`Streamed ~passes ~t0 ~per ~pop
    ~evals:(Predicate.dispatch_evals disp)

let build_stream_file ?grid_size ?grid_kind ?with_levels path preds =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let sax = Sax.of_channel ic in
  build_stream ?grid_size ?grid_kind ?with_levels (fun () -> Sax.next sax) preds

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
      acc = None;
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

(* The maintenance engine is created lazily on the first [apply], with
   no pass over the document: it copies the document once and adopts the
   population, the entries' position histograms and their build
   accumulators as live objects, edited in place from then on.  The
   histograms built on demand so far are handed over too, as
   [histogram_in] hands over the ones built later. *)
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
              | Some { hist; acc = Some acc; _ } -> Some (pred, hist, acc)
              | _ -> None
            end)
          t.preds
      in
      let st = Apply.init ~grid:t.grid ~pop:(population t) ~entries doc in
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
   never edited), and finish every entry again from its accumulators,
   which the engine edited in place, exactly as a build finishes them.
   The position histograms were mutated in place (version counters
   bumped), so kept coefficient slots re-derive on demand; the lazy
   level-position caches are stale. *)
let commit t st =
  t.doc <- Some (Apply.document st);
  let populations = population_cells t.grid (population t) in
  Hashtbl.filter_map_inplace
    (fun _ e ->
      Some
        (match e.acc with
        | Some acc -> finish_entry ~populations ~keep:true e.pred e.hist acc
        | None -> e))
    t.entries;
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
