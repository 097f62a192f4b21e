let poisson rng mean =
  if mean <= 0.0 then 0
  else begin
    let l = exp (-.mean) in
    let rec go k p =
      let p = p *. Splitmix.float rng 1.0 in
      if p <= l then k else go (k + 1) p
    in
    go 0 1.0
  end
