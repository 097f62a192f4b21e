type t = {
  tag : string;
  attrs : (string * string) list;
  text : string;
  children : t list;
}

let make ?(attrs = []) ?(text = "") ?(children = []) tag =
  { tag; attrs; text; children }

let leaf ?attrs tag text = make ?attrs ~text tag

let rec size t = List.fold_left (fun acc c -> acc + size c) 1 t.children

let rec iter f t =
  f t;
  List.iter (iter f) t.children

let tag_counts t =
  let table = Hashtbl.create 64 in
  let bump e =
    let n = try Hashtbl.find table e.tag with Not_found -> 0 in
    Hashtbl.replace table e.tag (n + 1)
  in
  iter bump t;
  Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
