open Xmlest_xmldb
open Xmlest_query

(* Compressed sparse rows over one flat float64 vector: row [c] (a covered
   cell) holds entries [row_off.(c) .. row_off.(c+1) - 1], each entry two
   consecutive floats in [data] — the covering cell index (exact: cell
   indices are tiny integers) and the fraction of [c]'s population it
   covers.  The flat layout lets a histogram own heap storage or be a
   zero-copy view over a memory-mapped summary store (lib/core/store.ml). *)
type t = {
  grid : Grid.t;
  row_off : int array Lazy.t;  (* length cells + 1 *)
  data : F64.t;         (* 2 * entries: covering cell, fraction, ... *)
  populations : F64.t;  (* TRUE-histogram count per cell *)
  total_cvg : F64.t;
}
(* [row_off] is lazy so a histogram opened from the memory-mapped summary
   store can defer materializing its offsets (and the page faults that
   reading them costs) until first use; built histograms wrap an already
   computed array with [Lazy.from_val], which forces to a tag check. *)

let offs t = Lazy.force t.row_off

let grid t = t.grid

let row_covering t k = int_of_float t.data.{2 * k}
let row_frac t k = t.data.{(2 * k) + 1}

(* Freeze per-covered-cell (covering, fraction) rows — already in the
   canonical sort order — into the CSR layout. *)
let of_rows ~grid ~populations rows =
  let cells = Grid.cells grid in
  let row_off = Array.make (cells + 1) 0 in
  for c = 0 to cells - 1 do
    row_off.(c + 1) <- row_off.(c) + Array.length rows.(c)
  done;
  let data = F64.create (2 * row_off.(cells)) in
  let total_cvg = F64.create cells in
  for c = 0 to cells - 1 do
    let base = row_off.(c) in
    let sum = ref 0.0 in
    Array.iteri
      (fun k (m, f) ->
        data.{2 * (base + k)} <- float_of_int m;
        data.{(2 * (base + k)) + 1} <- f;
        sum := !sum +. f)
      rows.(c);
    total_cvg.{c} <- !sum
  done;
  { grid; row_off = Lazy.from_val row_off; data;
    populations = F64.of_array populations; total_cvg }

(* Streaming builder: per covered cell, a run-length list of
   (covering cell, count) pairs, consecutive hits on the same covering
   cell merged in place.  [finish] sums the runs per covering cell, so
   any feed order of the same nodes gives the same histogram: [build]
   feeds in document order, the streamed summary build in reverse
   post-order. *)
type builder = {
  b_grid : Grid.t;
  b_counts : (int * float) list array;  (* covered cell -> run-length list *)
}

let builder grid = { b_grid = grid; b_counts = Array.make (Grid.cells grid) [] }

let feed b ~covered ~covering =
  b.b_counts.(covered) <-
    (match b.b_counts.(covered) with
    | (m, c) :: rest when Int.equal m covering -> (m, c +. 1.0) :: rest
    | l -> (covering, 1.0) :: l)

let finish b ~populations =
  if not (Int.equal (Array.length populations) (Grid.cells b.b_grid)) then
    invalid_arg "Coverage_histogram.finish: population array length mismatch";
  let rows =
    Array.mapi
      (fun c lst ->
        (* Merge duplicate covering cells (the run-length shortcut above
           only merges consecutive hits). *)
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (m, k) ->
            let cur = try Hashtbl.find tbl m with Not_found -> 0.0 in
            Hashtbl.replace tbl m (cur +. k))
          lst;
        let pop = populations.(c) in
        Hashtbl.fold (fun m k acc -> (m, k /. pop) :: acc) tbl []
        |> List.sort (fun (m1, f1) (m2, f2) ->
               match Int.compare m1 m2 with 0 -> Float.compare f1 f2 | c -> c)
        |> Array.of_list)
      b.b_counts
  in
  of_rows ~grid:b.b_grid ~populations rows

let build doc ~grid pred =
  let n = Document.size doc in
  (* Nearest strict P-ancestor per node, computed top-down in pre-order. *)
  let nearest = Array.make n (-1) in
  for v = 0 to n - 1 do
    let p = Document.parent doc v in
    if p >= 0 then
      nearest.(v) <- (if Predicate.eval pred doc p then p else nearest.(p))
  done;
  let populations = Array.make (Grid.cells grid) 0.0 in
  let b = builder grid in
  let cell_of v =
    let i, j =
      Grid.cell_of_node grid ~start_pos:(Document.start_pos doc v)
        ~end_pos:(Document.end_pos doc v)
    in
    Grid.index grid ~i ~j
  in
  for v = 0 to n - 1 do
    let c = cell_of v in
    populations.(c) <- populations.(c) +. 1.0;
    if nearest.(v) >= 0 then feed b ~covered:c ~covering:(cell_of nearest.(v))
  done;
  finish b ~populations

let coverage t ~i ~j ~m ~n =
  let ro = offs t in
  let c = Grid.index t.grid ~i ~j in
  let target = Grid.index t.grid ~i:m ~j:n in
  let rec find k =
    if k >= ro.(c + 1) then 0.0
    else if Int.equal (row_covering t k) target then row_frac t k
    else find (k + 1)
  in
  find ro.(c)

let total_coverage t ~i ~j = t.total_cvg.{Grid.index t.grid ~i ~j}

let iter_covers t ~i ~j f =
  let ro = offs t in
  let g = t.grid.Grid.size in
  let c = Grid.index t.grid ~i ~j in
  for k = ro.(c) to ro.(c + 1) - 1 do
    let cell = row_covering t k in
    f ~m:(cell / g) ~n:(cell mod g) (row_frac t k)
  done

let cell_population t ~i ~j = t.populations.{Grid.index t.grid ~i ~j}

let entries t =
  let ro = offs t in
  ro.(Array.length ro - 1)

let partial_entries t =
  let n = ref 0 in
  for k = 0 to entries t - 1 do
    let f = row_frac t k in
    if f > 0.0 && f < 1.0 then incr n
  done;
  !n

let bytes_per_entry = 10

let storage_bytes t = bytes_per_entry * entries t

let pp ppf t =
  let ro = offs t in
  let g = t.grid.Grid.size in
  for c = 0 to Array.length ro - 2 do
    if ro.(c + 1) > ro.(c) then begin
      Format.fprintf ppf "(%d,%d) covered by:" (c / g) (c mod g);
      for k = ro.(c) to ro.(c + 1) - 1 do
        let cell = row_covering t k in
        Format.fprintf ppf " (%d,%d)=%.3f" (cell / g) (cell mod g) (row_frac t k)
      done;
      Format.fprintf ppf "@."
    end
  done

let fold_entries t ~init ~f =
  let ro = offs t in
  let acc = ref init in
  for covered = 0 to Array.length ro - 2 do
    for k = ro.(covered) to ro.(covered + 1) - 1 do
      acc := f !acc ~covered ~covering:(row_covering t k) (row_frac t k)
    done
  done;
  !acc

let populations t = F64.to_array t.populations

let of_parts ~grid ~populations ~entries =
  let cells = Grid.cells grid in
  if not (Int.equal (Array.length populations) cells) then
    invalid_arg "Coverage_histogram.of_parts: population array length mismatch";
  let buckets = Array.make cells [] in
  List.iter
    (fun (covered, covering, frac) ->
      if covered < 0 || covered >= cells || covering < 0 || covering >= cells then
        invalid_arg "Coverage_histogram.of_parts: cell index out of range";
      buckets.(covered) <- (covering, frac) :: buckets.(covered))
    entries;
  let rows =
    Array.map
      (fun l ->
        Array.of_list
          (List.sort
             (fun (m1, f1) (m2, f2) ->
               match Int.compare m1 m2 with 0 -> Float.compare f1 f2 | c -> c)
             l))
      buckets
  in
  of_rows ~grid ~populations rows

let check_per_cell_lengths ~cells ~populations ~total_cvg =
  if
    (not (Int.equal (F64.length populations) cells))
    || not (Int.equal (F64.length total_cvg) cells)
  then
    invalid_arg "Coverage_histogram.of_csr: per-cell array length mismatch"

let check_row_off ~cells ~data row_off =
  if row_off.(0) <> 0 || not (Int.equal (F64.length data) (2 * row_off.(cells)))
  then
    invalid_arg "Coverage_histogram.of_csr: data length does not match offsets";
  for c = 0 to cells - 1 do
    if row_off.(c + 1) < row_off.(c) then
      invalid_arg "Coverage_histogram.of_csr: row offsets not monotone"
  done

let of_csr ~grid ~row_off ~data ~populations ~total_cvg =
  let cells = Grid.cells grid in
  if not (Int.equal (Array.length row_off) (cells + 1)) then
    invalid_arg "Coverage_histogram.of_csr: row offset array length mismatch";
  check_row_off ~cells ~data row_off;
  check_per_cell_lengths ~cells ~populations ~total_cvg;
  { grid; row_off = Lazy.from_val row_off; data; populations; total_cvg }

let of_csr_mapped ~grid ~offsets ~data ~populations ~total_cvg =
  let cells = Grid.cells grid in
  if not (Int.equal (F64.length offsets) (cells + 1)) then
    invalid_arg "Coverage_histogram.of_csr: row offset array length mismatch";
  if not (Int.equal (F64.length data) (2 * int_of_float offsets.{cells})) then
    invalid_arg "Coverage_histogram.of_csr: data length does not match offsets";
  check_per_cell_lengths ~cells ~populations ~total_cvg;
  (* Materializing cells+1 offsets from the mapped payload (and faulting
     its pages in) waits until the histogram is actually consulted, so a
     store open stays O(header). *)
  let row_off =
    lazy
      (let ro = Array.init (cells + 1) (fun k -> int_of_float offsets.{k}) in
       check_row_off ~cells ~data ro;
       ro)
  in
  { grid; row_off; data; populations; total_cvg }
