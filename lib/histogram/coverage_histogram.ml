open Xmlest_xmldb
open Xmlest_query

(* Compressed sparse rows: row [c] (a covered cell) holds entries
   [row_off.(c) .. row_off.(c+1) - 1], entry [k] being the covering cell
   [covering.(k)] and the fraction [frac.(k)] of [c]'s population it
   covers. *)
type t = {
  grid : Grid.t;
  row_off : int array;  (* length cells + 1 *)
  covering : int array;  (* per entry *)
  frac : float array;  (* per entry *)
  populations : float array;  (* TRUE-histogram count per cell *)
  total_cvg : float array;
}

let grid t = t.grid

(* The canonical entry order: covered cell, then covering cell, then
   fraction. *)
let compare_entries (c1, m1, f1) (c2, m2, f2) =
  match Int.compare c1 c2 with
  | 0 -> ( match Int.compare m1 m2 with 0 -> Float.compare f1 f2 | c -> c)
  | c -> c

(* Freeze (covered, covering, fraction) entries, already in the canonical
   order, into the CSR layout.  Each cell's total coverage is summed over
   its row in that order, so every constructor agrees bit for bit. *)
let of_sorted ~grid ~populations entries =
  let cells = Grid.cells grid in
  let row_off = Array.make (cells + 1) 0 in
  List.iter (fun (c, _, _) -> row_off.(c + 1) <- row_off.(c + 1) + 1) entries;
  for c = 0 to cells - 1 do
    row_off.(c + 1) <- row_off.(c + 1) + row_off.(c)
  done;
  let covering = Array.make row_off.(cells) 0 in
  let frac = Array.make row_off.(cells) 0.0 in
  let total_cvg = Array.make cells 0.0 in
  List.iteri
    (fun k (c, m, f) ->
      covering.(k) <- m;
      frac.(k) <- f;
      total_cvg.(c) <- total_cvg.(c) +. f)
    entries;
  { grid; row_off; covering; frac; populations = Array.copy populations; total_cvg }

(* Streaming builder: per covered cell, a run-length list of
   (covering cell, count) pairs, consecutive hits on the same covering
   cell merged in place.  [finish] sums the runs per covering cell, so
   any feed order of the same nodes gives the same histogram: [build]
   feeds in document order, the streamed summary build in reverse
   post-order.  Maintenance edits the same runs with signed [add]s. *)
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

(* The first run of [covering] absorbs [d], or a new run takes it; a run
   that reaches zero is dropped, so a row does not grow with the edit
   stream. *)
let add b ~covered ~covering d =
  let rec go = function
    | [] -> [ (covering, d) ]
    | (m, c) :: rest when Int.equal m covering ->
      let c = c +. d in
      if Float.equal c 0.0 then rest else (m, c) :: rest
    | run :: rest -> run :: go rest
  in
  b.b_counts.(covered) <- go b.b_counts.(covered)

let finish b ~populations =
  if not (Int.equal (Array.length populations) (Grid.cells b.b_grid)) then
    invalid_arg "Coverage_histogram.finish: population array length mismatch";
  let entries = ref [] in
  for c = Grid.cells b.b_grid - 1 downto 0 do
    match b.b_counts.(c) with
    | [] -> ()
    | runs ->
      (* Merge duplicate covering cells (the run-length shortcut above
         only merges consecutive hits); a cell whose runs cancel out
         covers nothing. *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (m, k) ->
          let cur = try Hashtbl.find tbl m with Not_found -> 0.0 in
          Hashtbl.replace tbl m (cur +. k))
        runs;
      let pop = populations.(c) in
      let row =
        Hashtbl.fold
          (fun m k acc -> if Float.equal k 0.0 then acc else (c, m, k /. pop) :: acc)
          tbl []
      in
      entries := List.sort compare_entries row @ !entries
  done;
  of_sorted ~grid:b.b_grid ~populations !entries

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

let total_coverage t ~i ~j = t.total_cvg.(Grid.index t.grid ~i ~j)

let rows t = (t.row_off, t.covering, t.frac)

let entries t =
  t.row_off.(Array.length t.row_off - 1)

let partial_entries t =
  let n = ref 0 in
  for k = 0 to entries t - 1 do
    let f = t.frac.(k) in
    if f > 0.0 && f < 1.0 then incr n
  done;
  !n

let storage_bytes t = 10 * entries t

let fold_entries t ~init ~f =
  let ro = t.row_off in
  let acc = ref init in
  for covered = 0 to Array.length ro - 2 do
    for k = ro.(covered) to ro.(covered + 1) - 1 do
      acc := f !acc ~covered ~covering:t.covering.(k) t.frac.(k)
    done
  done;
  !acc

let populations t = Array.copy t.populations

let of_parts ~grid ~populations ~entries =
  let cells = Grid.cells grid in
  if not (Int.equal (Array.length populations) cells) then
    invalid_arg "Coverage_histogram.of_parts: population array length mismatch";
  List.iter
    (fun (covered, covering, _) ->
      if covered < 0 || covered >= cells || covering < 0 || covering >= cells then
        invalid_arg "Coverage_histogram.of_parts: cell index out of range")
    entries;
  of_sorted ~grid ~populations (List.sort compare_entries entries)
