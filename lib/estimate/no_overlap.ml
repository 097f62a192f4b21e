open Xmlest_histogram
type t = float

let estimate ~desc ~coverage =
  let total = ref 0.0 in
  Position_histogram.iter_nonzero desc (fun ~i ~j count ->
      total := !total +. (count *. Coverage_histogram.total_coverage coverage ~i ~j));
  !total

(* The slot of cell [c] in the ascending cells [at.(lo .. hi - 1)], or
   -1. *)
let rec find_cell (at : int array) (c : int) lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) lsr 1 in
    let x = at.(mid) in
    if x < c then find_cell at c (mid + 1) hi
    else if x > c then find_cell at c lo mid
    else mid
  end

(* Each descendant cell's coverage row, in the descendant cells' order,
   adds w × frac into its covering cell's slot; a covering cell outside
   [anc_at] is skipped.  Every slot therefore sums the same terms in the
   same order as a dense accumulator over the whole grid would. *)
let cover_weights ~grid ~coverage (at, w) anc_at =
  if not (Grid.compatible grid (Coverage_histogram.grid coverage)) then
    invalid_arg "No_overlap.cover_weights: incompatible grids";
  let row_off, covering, frac = Coverage_histogram.rows coverage in
  let n = Array.length anc_at in
  let acc = Array.make n 0.0 in
  for k = 0 to Array.length at - 1 do
    let c = at.(k) in
    for e = row_off.(c) to row_off.(c + 1) - 1 do
      let f = frac.(e) in
      if f > 0.0 then begin
        let s = find_cell anc_at covering.(e) 0 n in
        if s >= 0 then acc.(s) <- acc.(s) +. (w.(k) *. f)
      end
    done
  done;
  acc

let participation_saturation ~n ~m =
  if n <= 0.0 || m <= 0.0 then 0.0
  else if n <= 1.0 then n (* at most one ancestor; it participates *)
  else n *. (1.0 -. Float.pow ((n -. 1.0) /. n) m)
