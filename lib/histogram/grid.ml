type t = {
  size : int;
  max_pos : int;
  boundaries : int array;
  uniform_width : int option;
}

let check_size ~fn ~size ~max_pos =
  if size <= 0 then invalid_arg (fn ^ ": size must be positive");
  if max_pos < 0 then invalid_arg (fn ^ ": max_pos must be non-negative");
  if size > max_pos + 1 then
    invalid_arg
      (Printf.sprintf "%s: size %d exceeds the %d available positions" fn size
         (max_pos + 1))

let create ~size ~max_pos =
  check_size ~fn:"Grid.create" ~size ~max_pos;
  let cell_width = (max_pos + 1 + size - 1) / size in
  let boundaries =
    Array.init (size + 1) (fun i -> Int.min (i * cell_width) (max_pos + 1))
  in
  (* The last boundary is forced to cover the whole range even when
     size * width overshoots. *)
  boundaries.(size) <- max_pos + 1;
  { size; max_pos; boundaries; uniform_width = Some cell_width }

let equidepth ~size ~max_pos ~positions =
  check_size ~fn:"Grid.equidepth" ~size ~max_pos;
  (* Quantile extraction indexes into the sorted order; sort a copy so
     callers may pass positions in any order without getting garbage
     boundaries. *)
  let positions =
    let sorted = Array.copy positions in
    Array.sort Int.compare sorted;
    sorted
  in
  let n = Array.length positions in
  let boundaries = Array.make (size + 1) 0 in
  boundaries.(size) <- max_pos + 1;
  for i = 1 to size - 1 do
    let quantile =
      if n = 0 then 0 else positions.(Int.min (n - 1) (i * n / size))
    in
    (* Boundaries must stay strictly increasing and leave room for the
       remaining buckets; clamp between the previous boundary + 1 and the
       highest value that still allows one position per remaining bucket. *)
    let lo = boundaries.(i - 1) + 1 in
    let hi = max_pos + 1 - (size - i) in
    boundaries.(i) <- Int.max lo (Int.min quantile hi)
  done;
  { size; max_pos; boundaries; uniform_width = None }

let of_boundaries boundaries =
  let n = Array.length boundaries in
  if n < 2 then invalid_arg "Grid.of_boundaries: need at least two boundaries";
  if boundaries.(0) <> 0 then invalid_arg "Grid.of_boundaries: must start at 0";
  for i = 0 to n - 2 do
    if boundaries.(i) >= boundaries.(i + 1) then
      invalid_arg "Grid.of_boundaries: boundaries must be strictly increasing"
  done;
  {
    size = n - 1;
    max_pos = boundaries.(n - 1) - 1;
    boundaries = Array.copy boundaries;
    uniform_width = None;
  }

let bucket t pos =
  if pos < 0 || pos > t.max_pos then
    invalid_arg
      (Printf.sprintf "Grid.bucket: position %d outside [0, %d]" pos t.max_pos);
  match t.uniform_width with
  | Some w -> Int.min (pos / w) (t.size - 1)
  | None ->
    (* Largest i with boundaries.(i) <= pos. *)
    let lo = ref 0 and hi = ref t.size in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.boundaries.(mid) <= pos then lo := mid else hi := mid
    done;
    !lo

(* Positions past [max_pos] clamp into the last bucket rather than raise:
   maintenance appends label new nodes beyond the grid's original position
   range, and a same-grid rebuild must bucket them exactly like the
   incremental path does.  [bucket] itself stays strict. *)
let cell_of_node t ~start_pos ~end_pos =
  let clamped p = if p > t.max_pos then t.size - 1 else bucket t p in
  (clamped start_pos, clamped end_pos)

let cells t = t.size * t.size

let index t ~i ~j = (i * t.size) + j

let is_uniform t = t.uniform_width <> None

let compatible a b =
  (* max_pos matters in every branch: two uniform grids with equal size and
     width but different max_pos still bucket the tail positions
     differently (the last boundary is clamped to max_pos + 1), so cell
     coordinates would not refer to the same position ranges. *)
  Int.equal a.size b.size
  && Int.equal a.max_pos b.max_pos
  &&
  match (a.uniform_width, b.uniform_width) with
  | Some wa, Some wb -> Int.equal wa wb
  | None, None | Some _, None | None, Some _ ->
    Int.equal (Array.length a.boundaries) (Array.length b.boundaries)
    && Array.for_all2 Int.equal a.boundaries b.boundaries

let pp ppf t =
  Format.fprintf ppf "grid %d over [0,%d] %s" t.size t.max_pos
    (match t.uniform_width with
    | Some w -> Printf.sprintf "(uniform, width %d)" w
    | None -> "(equi-depth)")
