(* Order statistics over samples. *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Linearly interpolated quantile of a sorted array, [q] in [0, 1]. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* Median of [values.(i)] per block of [width] in [keys.(i)]; empty blocks
   are skipped. *)
let block_medians ~width keys values =
  let blocks = Hashtbl.create 16 in
  Array.iteri
    (fun i k ->
      let b = int_of_float (k /. width) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt blocks b) in
      Hashtbl.replace blocks b (values.(i) :: prev))
    keys;
  Array.of_seq (Seq.map (fun l -> median (Array.of_list l)) (Hashtbl.to_seq_values blocks))

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* First and third quartile as Python's [statistics.quantiles(data, n=4)]
   computes them (the default "exclusive" method), so the spreads the
   benchmark reports are the ones its acceptance rule uses. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, nan)
  else if n = 1 then (s.(0), s.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)

(* Growable float buffer for latency samples. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push b x =
  if Int.equal b.len (Array.length b.data) then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
