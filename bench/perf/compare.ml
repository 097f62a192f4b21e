(* perf.exe compare A1.json ... -- B1.json ...

   Reads result records written with [--out], groups them by workload,
   and prints each metric's median and quartiles per side.  A metric is
   flagged when side B's median is worse than side A's by more than the
   bound BENCHMARK.json gives it, and an exact metric (one the seed
   determines) when the medians differ at all.  Exits 1 if anything is
   flagged. *)

type side = { runs : (string * (string * float) list) list }

let load file =
  match Json.of_file file with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok v -> (
    match (Option.bind (Json.member "workload" v) Json.to_str, Json.member "metrics" v) with
    | Some w, Some (Json.Obj ms) ->
      Ok
        ( w,
          List.filter_map
            (fun (name, m) -> Option.map (fun x -> (name, x)) (Option.bind (Json.member "value" m) Json.to_num))
            ms )
    | _ -> Error (file ^ ": not a perf.exe result record"))

(* name -> (better, bound) for the end-to-end metrics of BENCHMARK.json *)
let bounds file =
  match Json.of_file file with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok v -> (
    match Json.member "end_to_end" v with
    | Some (Json.Arr ms) ->
      Ok
        (List.filter_map
           (fun m ->
             match
               ( Option.bind (Json.member "name" m) Json.to_str,
                 Option.bind (Json.member "better" m) Json.to_str,
                 Option.bind (Json.member "bound" m) Json.to_num )
             with
             | Some n, Some b, Some x -> Some (n, (b, x))
             | _ -> None)
           ms)
    | _ -> Error (file ^ ": no end_to_end list"))

let values side workload metric =
  Array.of_list
    (List.filter_map
       (fun (w, ms) -> if String.equal w workload then List.assoc_opt metric ms else None)
       side.runs)

let summary xs =
  let q1, q3 = Stats.quartiles xs in
  Printf.sprintf "%12.6g [%.6g, %.6g]" (Stats.median xs) q1 q3

let uniq l =
  List.rev
    (List.fold_left
       (fun acc x -> if List.exists (String.equal x) acc then acc else x :: acc)
       [] l)

let report bounds a b =
  let flagged = ref 0 in
  let workloads = uniq (List.map fst (a.runs @ b.runs)) in
  List.iter
    (fun w ->
      let names = uniq (List.concat_map (fun (w', ms) -> if String.equal w w' then List.map fst ms else []) (a.runs @ b.runs)) in
      Printf.printf "workload %s  (A: %d runs, B: %d runs)\n" w
        (List.length (List.filter (fun (w', _) -> String.equal w w') a.runs))
        (List.length (List.filter (fun (w', _) -> String.equal w w') b.runs));
      Printf.printf "  %-28s %-40s %-40s %8s\n" "metric" "A median [q1, q3]" "B median [q1, q3]" "change";
      List.iter
        (fun name ->
          let va = values a w name and vb = values b w name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let ma = Stats.median va and mb = Stats.median vb in
            let change = if Float.equal ma 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
            let exact = match Metrics.find name with Some m -> m.Metrics.exact | None -> false in
            let flag =
              if exact then if Float.equal ma mb then "" else "DIFFERS"
              else
                match List.assoc_opt name bounds with
                | Some (better, bound) ->
                  let worse = if String.equal better "higher" then -.change else change in
                  if worse > bound then "REGRESSION" else ""
                | None -> ""
            in
            if not (String.equal flag "") then incr flagged;
            Printf.printf "  %-28s %-40s %-40s %+7.1f%% %s\n" name (summary va) (summary vb)
              (100.0 *. change) flag
          end)
        names)
    workloads;
  Printf.printf "%d metric(s) flagged\n" !flagged;
  if !flagged > 0 then 1 else 0

let main args =
  let rec split acc = function
    | "--" :: rest -> Some (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  match split [] args with
  | None | Some ([], _) | Some (_, []) ->
    prerr_endline "usage: perf.exe compare A.json ... -- B.json ...  (reads ./BENCHMARK.json)";
    2
  | Some (fa, fb) -> (
    let load_side files =
      List.fold_right
        (fun f acc ->
          match (load f, acc) with
          | Ok r, Ok rs -> Ok (r :: rs)
          | Error e, _ | _, Error e -> Error e)
        files (Ok [])
    in
    match (bounds "BENCHMARK.json", load_side fa, load_side fb) with
    | Ok bs, Ok ra, Ok rb -> report bs { runs = ra } { runs = rb }
    | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline ("perf compare: " ^ e);
      2)
