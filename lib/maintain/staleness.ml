type policy = [ `Never | `Always ]

type report = {
  updates_since_build : int;
  nodes_touched : int;
  per_predicate : (string * int) list;
}

let make_report ~updates_since_build ~per_predicate =
  let nodes_touched =
    List.fold_left (fun acc ((_, c) : string * int) -> acc + c) 0 per_predicate
  in
  { updates_since_build; nodes_touched; per_predicate }

let needs_rebuild policy report =
  match policy with
  | `Never -> false
  | `Always -> report.updates_since_build > 0

let pp_policy ppf policy =
  match policy with
  | `Never -> Format.pp_print_string ppf "never"
  | `Always -> Format.pp_print_string ppf "always"

let pp_report ppf r =
  Format.fprintf ppf "updates since build: %d@.nodes touched: %d@."
    r.updates_since_build r.nodes_touched;
  List.iter
    (fun ((name, c) : string * int) ->
      if c > 0 then Format.fprintf ppf "  %-32s touched %6d@." name c)
    r.per_predicate
