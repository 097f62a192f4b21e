(* The tree parser is a fold over Sax events, so the two share one
   grammar, one set of error messages and one set of positions. *)

type error = Sax.error = { line : int; column : int; message : string }

let pp_error = Sax.pp_error

exception Parse_error = Sax.Parse_error

(* An open element: its direct character data and finished children so
   far, newest first.  Blank runs before its first character data are
   dropped: the trim would remove them anyway. *)
type frame = {
  tag : string;
  attrs : (string * string) list;
  mutable texts : string list;
  mutable children : Elem.t list;
}

let text_of = function
  | [] -> ""
  | [ s ] -> Sax.trim_text s
  | texts -> Sax.trim_text (String.concat "" (List.rev texts))

(* Sax emits balanced events and ends with the root's Close, so the
   impossible cases below are unreachable. *)
let parse sax =
  let rec go stack =
    match (Sax.next sax, stack) with
    | Some (Sax.Open { tag; attrs }), _ ->
      go ({ tag; attrs; texts = []; children = [] } :: stack)
    | Some (Sax.Text s), f :: _ ->
      if not (List.is_empty f.texts && Sax.is_blank s) then f.texts <- s :: f.texts;
      go stack
    | Some Sax.Close, f :: rest -> (
      let e =
        {
          Elem.tag = f.tag;
          attrs = f.attrs;
          text = text_of f.texts;
          children = List.rev f.children;
        }
      in
      match rest with
      | parent :: _ ->
        parent.children <- e :: parent.children;
        go rest
      | [] ->
        (* The epilog: [None], or a Parse_error for trailing content. *)
        ignore (Sax.next sax : Sax.event option);
        e)
    | (Some (Sax.Text _ | Sax.Close) | None), [] | None, _ :: _ -> assert false
  in
  go []

let parse_string input =
  try Ok (parse (Sax.of_string input)) with Parse_error e -> Error e

let parse_string_exn input =
  match parse_string input with Ok e -> e | Error e -> raise (Parse_error e)

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> try Ok (parse (Sax.of_channel ic)) with Parse_error e -> Error e)
