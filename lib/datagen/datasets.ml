let names = [ "dblp"; "staff"; "xmark"; "shakespeare"; "treebank" ]

let generate ?seed name ~scale =
  if not (Float.is_finite scale && scale > 0.0) then
    invalid_arg (Printf.sprintf "scale must be finite and > 0, got %g" scale);
  let at_least_one base = Int.max 1 (int_of_float (base *. scale)) in
  match name with
  | "dblp" -> Dblp_gen.generate_scaled ?seed scale
  | "staff" -> Staff_gen.generate ?seed ~scale ()
  | "xmark" -> Xmark_gen.generate ?seed ~scale ()
  | "shakespeare" -> Shakespeare_gen.generate ?seed ~acts:(at_least_one 5.0) ()
  | "treebank" -> Treebank_gen.generate ?seed ~sentences:(at_least_one 200.0) ()
  | other -> invalid_arg (Printf.sprintf "unknown data set %S" other)
