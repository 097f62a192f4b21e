type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = next t in
  { state = s }

let int t n =
  if n <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Use the top bits (better mixed) and a modulo; the bias is negligible
     for the bounds used in this project (n << 2^62). *)
  let v = Int64.shift_right_logical (next t) 2 in
  Int64.to_int (Int64.rem v (Int64.of_int n))

let int_in t lo hi =
  if hi < lo then invalid_arg "Splitmix.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t 1.0 < p

let choose t a =
  if Array.length a = 0 then invalid_arg "Splitmix.choose: empty array";
  a.(int t (Array.length a))

let weighted t items =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 items in
  if total <= 0.0 then invalid_arg "Splitmix.weighted: no positive weight";
  let r = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Splitmix.weighted: no positive weight"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > r then x else pick (acc +. w) rest
  in
  pick 0.0 items

let geometric t mean =
  if mean <= 0.0 then 0
  else begin
    (* Geometric on {0,1,...} with success probability p = 1/(mean+1). *)
    let p = 1.0 /. (mean +. 1.0) in
    let u = float t 1.0 in
    let u = if u <= 0.0 then epsilon_float else u in
    let k = int_of_float (Float.floor (log u /. log (1.0 -. p))) in
    if k < 0 then 0 else k
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
