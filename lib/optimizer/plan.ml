open Xmlest_query

type t = { order : int list; prefixes : Pattern.t list }

let flatten = Pattern.flatten

let node_count pattern = Pattern.size pattern

let node_predicate pattern id =
  let f = flatten pattern in
  if id < 0 || id >= Array.length f.Pattern.preds then
    invalid_arg "Plan.node_predicate: id out of range";
  f.Pattern.preds.(id)

let induced_flat f ids =
  match ids with
  | [] -> None
  | _ ->
    let in_set = Array.make (Array.length f.Pattern.preds) false in
    List.iter (fun id -> in_set.(id) <- true) ids;
    (* Nearest proper ancestor within the set; also note whether the
       original parent is in the set (axis preserved). *)
    let nearest id =
      let rec walk v =
        if v < 0 then None
        else if in_set.(v) then Some v
        else walk f.Pattern.parents.(v)
      in
      walk f.Pattern.parents.(id)
    in
    let roots = List.filter (fun id -> nearest id = None) ids in
    (match roots with
    | [ root ] ->
      let children = Hashtbl.create 8 in
      List.iter
        (fun id ->
          match nearest id with
          | None -> ()
          | Some p ->
            let axis =
              if Int.equal f.Pattern.parents.(id) p then f.Pattern.axes.(id)
              else Pattern.Descendant
            in
            let cur = try Hashtbl.find children p with Not_found -> [] in
            Hashtbl.replace children p ((axis, id) :: cur))
        ids;
      let rec build id =
        let edges =
          (try Hashtbl.find children id with Not_found -> [])
          |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
          |> List.map (fun (axis, c) -> (axis, build c))
        in
        Pattern.node ~edges f.Pattern.preds.(id)
      in
      Some (build root)
    | _ -> None)

let induced pattern ids = induced_flat (flatten pattern) ids

let max_nodes = Sys.int_size - 1

(* Node sets are bitmasks over pre-order ids (bit v for node v): the
   induced sub-twig of a set does not depend on the order its nodes were
   joined in, so it is built once per set and shared by every plan. *)
let enumerate pattern =
  let f = flatten pattern in
  let n = Array.length f.Pattern.preds in
  if n > max_nodes then
    invalid_arg
      (Printf.sprintf "Plan.enumerate: %d nodes, more than the %d a node-set bitmask holds"
         n max_nodes);
  let induced_memo = Hashtbl.create 64 in
  let induced mask ids =
    match Hashtbl.find_opt induced_memo mask with
    | Some sub -> sub
    | None ->
      let sub = induced_flat f ids in
      Hashtbl.add induced_memo mask sub;
      sub
  in
  let plans = ref [] in
  let rec extend chosen mask prefixes remaining =
    match remaining with
    | [] ->
      plans := { order = List.rev chosen; prefixes = List.rev prefixes } :: !plans
    | _ ->
      List.iter
        (fun v ->
          let candidate = v :: chosen and mask = mask lor (1 lsl v) in
          let next prefixes =
            extend candidate mask prefixes
              (List.filter (fun u -> not (Int.equal u v)) remaining)
          in
          match chosen with
          | [] -> next prefixes
          | _ -> Option.iter (fun sub -> next (sub :: prefixes)) (induced mask candidate))
        remaining
  in
  extend [] 0 [] (List.init n Fun.id);
  List.rev !plans

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Format.pp_print_int)
    t.order
