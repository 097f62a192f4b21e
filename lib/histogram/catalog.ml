(* Histogram catalog with memoized pH-join coefficient arrays (Sec. 3.3's
   space-for-time trade): a keyed store of position histograms that lazily
   computes the per-histogram coefficient arrays, keeps them until the
   underlying histogram mutates (detected via Position_histogram.version),
   and counts hits/misses/recomputes so the caching can be observed.

   The coefficient computations themselves live a layer up (Ph_join, in
   xmlest_estimate, which depends on this library), so they are injected at
   creation time as plain functions. *)

type kind = Descendant | Ancestor

type counters = {
  hits : int;
  misses : int;
  recomputes : int;
  compute_seconds : float;
}

type slot = { slot_version : int; coefs : float array }

type entry = {
  hist : Position_histogram.t;
  mutable desc : slot option;
  mutable anc : slot option;
}

type t = {
  compute_desc : Position_histogram.t -> float array;
  compute_anc : Position_histogram.t -> float array;
  entries : (string, entry) Hashtbl.t;
  mutable grid : Grid.t option;
  mutable hits : int;
  mutable misses : int;
  mutable recomputes : int;
  mutable compute_seconds : float;
}

let create ~compute_desc ~compute_anc () =
  {
    compute_desc;
    compute_anc;
    entries = Hashtbl.create 32;
    grid = None;
    hits = 0;
    misses = 0;
    recomputes = 0;
    compute_seconds = 0.0;
  }

let keys t =
  List.sort String.compare
    (Hashtbl.fold (fun key _ acc -> key :: acc) t.entries [])

let find t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> Some e.hist
  | None -> None

let add t ~key hist =
  let hgrid = Position_histogram.grid hist in
  (match t.grid with
  | None -> t.grid <- Some hgrid
  | Some g ->
    if not (Grid.compatible g hgrid) then
      invalid_arg
        (Printf.sprintf
           "Catalog.add: histogram %S uses a grid incompatible with the \
            catalog's"
           key));
  Hashtbl.replace t.entries key { hist; desc = None; anc = None }

(* The memoization heart: serve the cached array when its version matches
   the histogram's current one, otherwise (re)compute and re-stamp. *)
let coefficients t key kind =
  match Hashtbl.find_opt t.entries key with
  | None -> None
  | Some e ->
    let version = Position_histogram.version e.hist in
    let cached = match kind with Descendant -> e.desc | Ancestor -> e.anc in
    (match cached with
    | Some s when Int.equal s.slot_version version ->
      t.hits <- t.hits + 1;
      Some s.coefs
    | stale ->
      (match stale with
      | Some _ -> t.recomputes <- t.recomputes + 1
      | None -> t.misses <- t.misses + 1);
      let t0 = Sys.time () in
      let compute =
        match kind with Descendant -> t.compute_desc | Ancestor -> t.compute_anc
      in
      let coefs = compute e.hist in
      t.compute_seconds <- t.compute_seconds +. (Sys.time () -. t0);
      let s = { slot_version = version; coefs } in
      (match kind with Descendant -> e.desc <- Some s | Ancestor -> e.anc <- Some s);
      Some coefs)

let descendant_coefficients t key = coefficients t key Descendant
let ancestor_coefficients t key = coefficients t key Ancestor

let cached_arrays t =
  Hashtbl.fold
    (fun _ e acc ->
      let fresh slot =
        match slot with
        | Some s when Int.equal s.slot_version (Position_histogram.version e.hist)
          ->
          1
        | _ -> 0
      in
      acc + fresh e.desc + fresh e.anc)
    t.entries 0

let counters t =
  {
    hits = t.hits;
    misses = t.misses;
    recomputes = t.recomputes;
    compute_seconds = t.compute_seconds;
  }

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.recomputes <- 0;
  t.compute_seconds <- 0.0

let pp_stats ppf t =
  Format.fprintf ppf "catalog: %d histograms%a, %d coefficient arrays cached@."
    (Hashtbl.length t.entries)
    (fun ppf -> function
      | Some g -> Format.fprintf ppf " (%a)" Grid.pp g
      | None -> ())
    t.grid (cached_arrays t);
  Format.fprintf ppf
    "coefficients: %d hits, %d misses, %d recomputes; %.3fms computing@." t.hits
    t.misses t.recomputes
    (t.compute_seconds *. 1e3)
