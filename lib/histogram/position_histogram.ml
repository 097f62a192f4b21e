open Xmlest_xmldb
open Xmlest_query

(* [kept] holds the non-zero cells in [nonzero] order, found once when
   the histogram is made; [add] drops them, and [nonzero] then scans
   afresh.  They are never filled in on a read, so a histogram that
   several domains read is never written. *)
type t = {
  grid : Grid.t;
  counts : float array;
  mutable total : float;
  mutable version : int;
  mutable kept : (int array * float array) option;
}

(* Non-zero as [Float.equal v 0.0] judges it, ±0.0 zero and NaN not, in
   two inline comparisons instead of a C call per cell. *)
let is_nonzero v = not (v >= 0.0 && v <= 0.0)

(* Tight passes over the upper triangle, row-major like [iter_nonzero],
   with no closure per cell: the number of non-zero cells, and the cells
   themselves. *)
let count_nonzero grid c =
  let g = grid.Grid.size in
  let n = ref 0 in
  for i = 0 to g - 1 do
    for x = (i * g) + i to (i * g) + g - 1 do
      if is_nonzero c.(x) then incr n
    done
  done;
  !n

let scan grid c =
  let g = grid.Grid.size in
  let n = count_nonzero grid c in
  let at = Array.make n 0 and v = Array.make n 0.0 in
  let k = ref 0 in
  for i = 0 to g - 1 do
    for x = (i * g) + i to (i * g) + g - 1 do
      if is_nonzero c.(x) then begin
        at.(!k) <- x;
        v.(!k) <- c.(x);
        incr k
      end
    done
  done;
  (at, v)

let make grid counts total =
  { grid; counts; total; version = 0; kept = Some (scan grid counts) }

let create_empty grid =
  {
    grid;
    counts = Array.make (Grid.cells grid) 0.0;
    total = 0.0;
    version = 0;
    kept = Some ([||], [||]);
  }

let grid t = t.grid

let version t = t.version

(* Only the upper triangle is meaningful (start bucket <= end bucket, see
   Lemma 1's staircase): a write below the diagonal would inflate [total]
   while staying invisible to [iter_nonzero], silently skewing every
   estimate derived from the histogram. *)
let check_cell fn grid ~i ~j =
  let g = grid.Grid.size in
  if i < 0 || j < 0 || i >= g || j >= g then
    invalid_arg
      (Printf.sprintf "Position_histogram.%s: cell (%d,%d) outside the %dx%d grid"
         fn i j g g);
  if i > j then
    invalid_arg
      (Printf.sprintf
         "Position_histogram.%s: cell (%d,%d) is below the diagonal (start \
          bucket must not exceed end bucket)"
         fn i j)

let get t ~i ~j = t.counts.(Grid.index t.grid ~i ~j)

let add t ~i ~j v =
  check_cell "add" t.grid ~i ~j;
  let idx = Grid.index t.grid ~i ~j in
  t.counts.(idx) <- t.counts.(idx) +. v;
  t.total <- t.total +. v;
  t.version <- t.version + 1;
  t.kept <- None

let total t = t.total

(* Streaming builder: unit-count increments without the per-call cell
   validation and version bump of [add].  Cells arriving from
   [Grid.cell_of_node] are always in the upper triangle (start < end and
   bucketization is monotone), so the checks are redundant on this path.
   The total is summed once at [finish]; since every count is an integer
   (well below 2^53), the fold equals the incremental sum of [add]
   bit-for-bit. *)
type builder = { b_grid : Grid.t; b_counts : float array }

let builder grid = { b_grid = grid; b_counts = Array.make (Grid.cells grid) 0.0 }

let feed_cell b idx = b.b_counts.(idx) <- b.b_counts.(idx) +. 1.0

let finish b =
  make b.b_grid (Array.copy b.b_counts) (Array.fold_left ( +. ) 0.0 b.b_counts)

(* The total is summed over the given cells in their order; for the
   exact integer counts of a summary that equals [finish]'s fold over the
   dense cells bit for bit. *)
let of_nonzero ~grid at v =
  if not (Int.equal (Array.length at) (Array.length v)) then
    invalid_arg "Position_histogram.of_nonzero: index and value arrays differ in length";
  let g = grid.Grid.size in
  let counts = Array.make (Grid.cells grid) 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun k x ->
      check_cell "of_nonzero" grid ~i:(x / g) ~j:(x mod g);
      counts.(x) <- v.(k);
      total := !total +. v.(k))
    at;
  make grid counts !total

let build doc ~grid pred =
  let b = builder grid in
  Array.iter
    (fun v ->
      let i, j =
        Grid.cell_of_node grid ~start_pos:(Document.start_pos doc v)
          ~end_pos:(Document.end_pos doc v)
      in
      feed_cell b (Grid.index grid ~i ~j))
    (Predicate.matching_nodes doc pred);
  finish b

(* The kept cells are read-only, so the copy shares them until its
   first [add]. *)
let copy t = { t with counts = Array.copy t.counts; version = 0 }

let map2 f a b =
  if not (Grid.compatible a.grid b.grid) then
    invalid_arg "Position_histogram.map2: incompatible grids";
  let n = Array.length a.counts in
  let counts = Array.make n 0.0 in
  for c = 0 to n - 1 do
    counts.(c) <- f a.counts.(c) b.counts.(c)
  done;
  make a.grid counts (Array.fold_left ( +. ) 0.0 counts)

let scale t k =
  let n = Array.length t.counts in
  let counts = Array.make n 0.0 in
  for c = 0 to n - 1 do
    counts.(c) <- t.counts.(c) *. k
  done;
  make t.grid counts (t.total *. k)

let iter_nonzero t f =
  let g = t.grid.Grid.size in
  for i = 0 to g - 1 do
    for j = i to g - 1 do
      let v = t.counts.(Grid.index t.grid ~i ~j) in
      if is_nonzero v then f ~i ~j v
    done
  done

let nonzero t = match t.kept with Some cells -> cells | None -> scan t.grid t.counts

let nonzero_cells t =
  match t.kept with
  | Some (at, _) -> Array.length at
  | None -> count_nonzero t.grid t.counts

let storage_bytes t = 6 * nonzero_cells t

let pp_heatmap ppf t =
  let g = t.grid.Grid.size in
  let max_count =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 t.counts
  in
  (* Shares are meaningless when the total is zero or negative (possible
     after map2 subtraction): classify against the largest magnitude
     instead of producing NaN/negative shares that all render as '.'. *)
  let denom = if t.total > 0.0 then t.total else max_count in
  Format.fprintf ppf "start\\end 0..%d (total %g)@." (g - 1) t.total;
  for i = 0 to g - 1 do
    Format.fprintf ppf "%3d " i;
    for j = 0 to g - 1 do
      let ch =
        if j < i then ' '
        else begin
          let v = t.counts.(Grid.index t.grid ~i ~j) in
          if Float.equal v 0.0 then '-'
          else if denom <= 0.0 then '.'
          else begin
            let share = Float.abs v /. denom in
            if share >= 0.10 then '#'
            else if share >= 0.03 then 'O'
            else if share >= 0.01 then 'o'
            else '.'
          end
        end
      in
      Format.pp_print_char ppf ch
    done;
    Format.pp_print_newline ppf ()
  done
