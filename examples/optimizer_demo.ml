(* Cost-based join ordering — the paper's motivating scenario (Sec. 1).

   The query //manager//department[.//employee][.//email] can be assembled
   in many orders: join departments with emails first, or with employees,
   or hang everything off managers.  Intermediate result sizes differ by
   orders of magnitude, and a cost-based optimizer needs estimates to pick
   a good order before running anything.

   This demo builds the summary over the synthetic staff data set, ranks
   all left-deep plans by estimated cost, then evaluates every plan's true
   cost with the exact engine to show the estimates rank them correctly.

   Run with: dune exec examples/optimizer_demo.exe *)

open Xmlest_core

let () =
  let doc = Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()) in
  let predicates =
    List.map Xmlest.Predicate.tag [ "manager"; "department"; "employee"; "email" ]
  in
  let summary = Xmlest.Summary.build ~grid_size:10 doc predicates in
  let query = "//manager//department[.//employee][.//email]" in
  let pattern = Xmlest.Pattern_parser.pattern_exn query in

  Printf.printf "query: %s\n" query;
  Printf.printf "data:  staff data set, %d nodes\n\n" (Xmlest.Document.size doc);

  (* Node ids for readability. *)
  Printf.printf "pattern nodes:\n";
  for id = 0 to Xmlest.Plan.node_count pattern - 1 do
    Printf.printf "  %d = %s\n" id
      (Xmlest.Predicate.name (Xmlest.Plan.node_predicate pattern id))
  done;
  print_newline ();

  let ranked = Xmlest.Optimizer.rank (Xmlest.Summary.catalog summary) pattern in
  Printf.printf "%-20s %14s %14s\n" "plan (join order)" "est. cost" "actual cost";
  List.iter
    (fun c ->
      Printf.printf "%-20s %14.1f %14d\n"
        (Format.asprintf "%a" Xmlest.Plan.pp c.Xmlest.Optimizer.plan)
        c.Xmlest.Optimizer.cost
        (Xmlest.Optimizer.actual_cost doc pattern c.Xmlest.Optimizer.plan))
    ranked;

  let best = List.hd ranked in
  let worst = List.nth ranked (List.length ranked - 1) in
  let best_actual = Xmlest.Optimizer.actual_cost doc pattern best.Xmlest.Optimizer.plan in
  let worst_actual = Xmlest.Optimizer.actual_cost doc pattern worst.Xmlest.Optimizer.plan in
  Printf.printf
    "\nchosen plan materializes %d intermediate results; the worst plan \
     would materialize %d (%.0fx more)\n"
    best_actual worst_actual
    (float_of_int worst_actual /. float_of_int (max 1 best_actual));

  (* Actually run both plans and time them: the estimates' ranking should
     show up as wall-clock difference. *)
  let time_plan label (plan : Xmlest.Plan.t) =
    let t0 = Sys.time () in
    let result = Xmlest.Executor.run doc pattern ~order:plan.Xmlest.Plan.order in
    let dt = (Sys.time () -. t0) *. 1e3 in
    Printf.printf "%s plan executed in %6.2f ms, %d matches (intermediates: %s)\n"
      label dt
      (List.length result.Xmlest.Executor.rows)
      (String.concat ", "
         (List.map string_of_int result.Xmlest.Executor.intermediate_sizes));
    List.length result.Xmlest.Executor.rows
  in
  print_newline ();
  let n1 = time_plan "best " best.Xmlest.Optimizer.plan in
  let n2 = time_plan "worst" worst.Xmlest.Optimizer.plan in
  assert (n1 = n2)
