open Xmlest_xmldb

type t =
  | Insert of { parent : Document.node; index : int; subtree : Elem.t }
  | Delete of { node : Document.node }
  | Replace_text of { node : Document.node; text : string }
  | Replace_attrs of { node : Document.node; attrs : (string * string) list }

(* Exact single-line XML serialization of a subtree: entities are
   escaped so that [Xml_parser.parse_string] inverts [subtree_to_xml], and
   line breaks become character references so the XML stays on one
   line. *)
let escape ~quot s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when quot -> Buffer.add_string buf "&quot;"
      | '\n' -> Buffer.add_string buf "&#10;"
      | '\r' -> Buffer.add_string buf "&#13;"
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

(* A text or attribute word travels bare when [parse] reads it back
   unchanged, and otherwise as an OCaml string literal ([%S]), which
   escapes quotes, backslashes, line breaks and every other
   non-printable byte. *)
let is_space c = match c with ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false
let starts_quoted s = String.length s > 0 && Char.equal s.[0] '"'

let quote_if bad s =
  if starts_quoted s || String.exists bad s then Printf.sprintf "%S" s else s

let to_line u =
  match u with
  | Insert { parent; index; subtree } ->
    Printf.sprintf "insert %d %d %s" parent index (subtree_to_xml subtree)
  | Delete { node } -> Printf.sprintf "delete %d" node
  | Replace_text { node; text } ->
    let text =
      if String.equal text (String.trim text) then
        quote_if (fun c -> Char.equal c '\n' || Char.equal c '\r') text
      else Printf.sprintf "%S" text
    in
    Printf.sprintf "replace-text %d %s" node text
  | Replace_attrs { node; attrs } ->
    let word ~key = quote_if (fun c -> is_space c || (key && Char.equal c '=')) in
    let pair (k, v) = word ~key:true k ^ "=" ^ word ~key:false v in
    Printf.sprintf "replace-attrs %d %s" node (String.concat " " (List.map pair attrs))

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

(* The word of [s] at [i] and the index past it: a string literal, or
   the bare run up to whitespace or a [stop] character. *)
let read_word s i ~stop =
  let n = String.length s in
  if i < n && Char.equal s.[i] '"' then
    match Scanf.sscanf (String.sub s i (n - i)) "%S%n" (fun w k -> (w, i + k)) with
    | r -> Ok r
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
      Error "bad string literal"
  else begin
    let j = ref i in
    while !j < n && (not (is_space s.[!j])) && not (stop s.[!j]) do
      incr j
    done;
    Ok (String.sub s i (!j - i), !j)
  end

(* [k=v] pairs separated by whitespace; a bare [k] has the empty value. *)
let parse_attrs s =
  let n = String.length s in
  let at_break i = i >= n || is_space s.[i] in
  let rec pairs i acc =
    if i < n && is_space s.[i] then pairs (i + 1) acc
    else if i >= n then Ok (List.rev acc)
    else
      let* k, i = read_word s i ~stop:(Char.equal '=') in
      if i < n && Char.equal s.[i] '=' then
        let* v, i = read_word s (i + 1) ~stop:(fun _ -> false) in
        if at_break i then pairs i ((k, v) :: acc)
        else Error "expected whitespace after an attribute value"
      else if at_break i then pairs i ((k, "") :: acc)
      else Error "expected '=' after an attribute name"
  in
  pairs 0 []

let parse_text s =
  if starts_quoted s then
    let* text, i = read_word s 0 ~stop:(fun _ -> false) in
    if Int.equal i (String.length s) then Ok text
    else Error "text after the string literal"
  else Ok s

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
    let* text = parse_text text in
    Ok (Replace_text { node; text })
  | "replace-attrs" ->
    let w, rest = split_first rest in
    let* node = int_of_word w in
    let* attrs = parse_attrs rest in
    Ok (Replace_attrs { node; attrs })
  | "" -> Error "empty update line"
  | other -> Error (Printf.sprintf "unknown update op %S" other)
