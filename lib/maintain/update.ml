open Xmlest_xmldb

type t =
  | Insert of { parent : Document.node; index : int; subtree : Elem.t }
  | Delete of { node : Document.node }
  | Replace_text of { node : Document.node; text : string }
  | Replace_attrs of { node : Document.node; attrs : (string * string) list }

let apply_doc doc u =
  match u with
  | Insert { parent; index; subtree } ->
    ignore (Document.insert_subtree doc ~parent ~index subtree : Document.node)
  | Delete { node } -> Document.delete_subtree doc node
  | Replace_text { node; text } -> Document.replace_text doc node text
  | Replace_attrs { node; attrs } -> Document.replace_attrs doc node attrs

(* Exact XML serialization of a subtree (unlike [Elem.pp], which truncates
   long text for display): entities are escaped so that
   [Xml_parser.parse_string] inverts [subtree_to_xml]. *)
let escape ~quot s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when quot -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let subtree_to_xml elem =
  let buf = Buffer.create 256 in
  let rec go e =
    Buffer.add_char buf '<';
    Buffer.add_string buf e.Elem.tag;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape ~quot:true v);
        Buffer.add_char buf '"')
      e.Elem.attrs;
    if String.equal e.Elem.text "" && List.compare_length_with e.Elem.children 0 = 0
    then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      Buffer.add_string buf (escape ~quot:false e.Elem.text);
      List.iter go e.Elem.children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.Elem.tag;
      Buffer.add_char buf '>'
    end
  in
  go elem;
  Buffer.contents buf

let to_line u =
  match u with
  | Insert { parent; index; subtree } ->
    Printf.sprintf "insert %d %d %s" parent index (subtree_to_xml subtree)
  | Delete { node } -> Printf.sprintf "delete %d" node
  | Replace_text { node; text } -> Printf.sprintf "replace-text %d %s" node text
  | Replace_attrs { node; attrs } ->
    let parts = List.map (fun (k, v) -> k ^ "=" ^ v) attrs in
    Printf.sprintf "replace-attrs %d %s" node (String.concat " " parts)

let pp ppf u = Format.pp_print_string ppf (to_line u)

(* [split_first s] cuts the first whitespace-separated word off [s]. *)
let split_first s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
    (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

let int_of_word w =
  match int_of_string_opt w with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "expected a node index, got %S" w)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse line =
  let cmd, rest = split_first line in
  match cmd with
  | "delete" ->
    let* node = int_of_word rest in
    Ok (Delete { node })
  | "insert" ->
    let w1, rest = split_first rest in
    let w2, xml = split_first rest in
    let* parent = int_of_word w1 in
    let* index = int_of_word w2 in
    (match Xml_parser.parse_string xml with
    | Ok subtree -> Ok (Insert { parent; index; subtree })
    | Error e ->
      Error (Format.asprintf "bad subtree XML: %a" Xml_parser.pp_error e))
  | "replace-text" ->
    let w, text = split_first rest in
    let* node = int_of_word w in
    Ok (Replace_text { node; text })
  | "replace-attrs" ->
    let w, rest = split_first rest in
    let* node = int_of_word w in
    let parts =
      List.filter (fun s -> not (String.equal s "")) (String.split_on_char ' ' rest)
    in
    let attrs =
      List.map
        (fun part ->
          match String.index_opt part '=' with
          | Some i ->
            ( String.sub part 0 i,
              String.sub part (i + 1) (String.length part - i - 1) )
          | None -> (part, ""))
        parts
    in
    Ok (Replace_attrs { node; attrs })
  | "" -> Error "empty update line"
  | other -> Error (Printf.sprintf "unknown update op %S" other)
