type particle =
  | Pcdata
  | Elem_ref of string
  | Seq of particle list
  | Choice of particle list
  | Opt of particle
  | Star of particle
  | Plus of particle
  | Empty

type element_decl = { name : string; content : particle }

type t = {
  table : (string, element_decl) Hashtbl.t;
  reachable_tbl : (string, string list) Hashtbl.t;
}

let rec referenced acc = function
  | Pcdata | Empty -> acc
  | Elem_ref n -> n :: acc
  | Seq ps | Choice ps -> List.fold_left referenced acc ps
  | Opt p | Star p | Plus p -> referenced acc p

let make decls =
  let table = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if Hashtbl.mem table d.name then
        invalid_arg (Printf.sprintf "Dtd.make: duplicate declaration of %s" d.name);
      Hashtbl.add table d.name d)
    decls;
  List.iter
    (fun d ->
      List.iter
        (fun r ->
          if not (Hashtbl.mem table r) then
            invalid_arg
              (Printf.sprintf "Dtd.make: %s references undeclared element %s"
                 d.name r))
        (referenced [] d.content))
    decls;
  { table; reachable_tbl = Hashtbl.create 16 }

let find t name = Hashtbl.find_opt t.table name

let reachable t name =
  match Hashtbl.find_opt t.reachable_tbl name with
  | Some r -> r
  | None ->
    let seen = Hashtbl.create 16 in
    let rec visit n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        match Hashtbl.find_opt t.table n with
        | None -> ()
        | Some d -> List.iter visit (referenced [] d.content)
      end
    in
    visit name;
    let r = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
    let r = List.sort String.compare r in
    Hashtbl.replace t.reachable_tbl name r;
    r
