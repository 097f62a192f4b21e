(* The original recursive-descent XML tree parser, kept as the
   differential oracle for [Sax] and [Xml_parser]: a byte-at-a-time
   cursor over the whole input string, tracking line and column on every
   byte, with its own copy of the grammar.  It shares no scanning code
   with the library's bulk-scanning reader, so agreement on trees, event
   streams and (line, column, message) errors pins both.

   Besides the tree it records the event stream [Sax.next] must produce:
   [Open] after a start tag, [Close] after an end tag (or right after the
   [Open] of a self-closing tag), and one [Text] per maximal non-empty
   run of character data, entity references and CDATA sections, ended by
   any other markup. *)

open Xmlest_core
open Xmlest

(* Cursor over the input string, tracking line/column for error messages. *)
type cursor = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable events : Sax.event list;  (* newest first *)
  run : Buffer.t;  (* the pending Text run *)
}

let cursor input =
  { input; pos = 0; line = 1; col = 1; events = []; run = Buffer.create 16 }

let fail c message =
  raise (Xml_parser.Parse_error { Xml_parser.line = c.line; column = c.col; message })

let emit c ev = c.events <- ev :: c.events

let flush_run c =
  if Buffer.length c.run > 0 then begin
    emit c (Sax.Text (Buffer.contents c.run));
    Buffer.clear c.run
  end

let eof c = c.pos >= String.length c.input
let peek c = if eof c then '\000' else c.input.[c.pos]

let peek2 c =
  if c.pos + 1 >= String.length c.input then '\000' else c.input.[c.pos + 1]

let advance c =
  if not (eof c) then begin
    if c.input.[c.pos] = '\n' then begin
      c.line <- c.line + 1;
      c.col <- 1
    end
    else c.col <- c.col + 1;
    c.pos <- c.pos + 1
  end

let skip_ws c =
  while (not (eof c)) && (match peek c with ' ' | '\t' | '\r' | '\n' -> true | _ -> false) do
    advance c
  done

let expect c ch =
  if Char.equal (peek c) ch then advance c
  else fail c (Printf.sprintf "expected %C, found %C" ch (peek c))

let looking_at c s =
  let n = String.length s in
  c.pos + n <= String.length c.input && String.equal (String.sub c.input c.pos n) s

let skip_string c s =
  if looking_at c s then
    for _ = 1 to String.length s do
      advance c
    done
  else fail c (Printf.sprintf "expected %S" s)

(* Skip until the terminator [s] (inclusive): comments and PIs. *)
let skip_until c s =
  let rec go () =
    if eof c then fail c (Printf.sprintf "unterminated construct, expected %S" s)
    else if looking_at c s then skip_string c s
    else begin
      advance c;
      go ()
    end
  in
  go ()

let is_name_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || ch = ':'

let is_name_char ch =
  is_name_start ch || (ch >= '0' && ch <= '9') || ch = '-' || ch = '.'

let parse_name c =
  if not (is_name_start (peek c)) then
    fail c (Printf.sprintf "expected a name, found %C" (peek c));
  let start = c.pos in
  while (not (eof c)) && is_name_char (peek c) do
    advance c
  done;
  String.sub c.input start (c.pos - start)

(* A character reference's code point: "#" then decimal digits, or "#x"
   then hex digits, at most 0x10FFFF. *)
let char_ref_code name =
  let digits, base =
    if String.length name > 1 && (name.[1] = 'x' || name.[1] = 'X') then
      (String.sub name 2 (String.length name - 2), 16)
    else (String.sub name 1 (String.length name - 1), 10)
  in
  let valid ch =
    match ch with
    | '0' .. '9' -> true
    | 'a' .. 'f' | 'A' .. 'F' -> base = 16
    | _ -> false
  in
  if String.equal digits "" || not (String.for_all valid digits) then None
  else
    match int_of_string_opt ((if base = 16 then "0x" else "") ^ digits) with
    | Some code when code <= 0x10FFFF -> Some code
    | Some _ | None -> None

(* Decode an entity reference starting just after '&'. *)
let parse_entity c =
  let name_start = c.pos in
  while (not (eof c)) && peek c <> ';' && c.pos - name_start < 12 do
    advance c
  done;
  if peek c <> ';' then fail c "unterminated entity reference";
  let name = String.sub c.input name_start (c.pos - name_start) in
  advance c;
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
    if String.length name > 1 && name.[0] = '#' then begin
      match char_ref_code name with
      | None -> fail c (Printf.sprintf "bad character reference &%s;" name)
      | Some code ->
        let b = Buffer.create 4 in
        Buffer.add_utf_8_uchar b (Uchar.unsafe_of_int code);
        Buffer.contents b
    end
    else fail c (Printf.sprintf "unknown entity &%s;" name)

let parse_attr_value c =
  let quote = peek c in
  if quote <> '"' && quote <> '\'' then fail c "expected quoted attribute value";
  advance c;
  let b = Buffer.create 16 in
  let rec go () =
    if eof c then fail c "unterminated attribute value"
    else if Char.equal (peek c) quote then advance c
    else if peek c = '&' then begin
      advance c;
      Buffer.add_string b (parse_entity c);
      go ()
    end
    else begin
      Buffer.add_char b (peek c);
      advance c;
      go ()
    end
  in
  go ();
  Buffer.contents b

let parse_attrs c =
  let rec go acc =
    skip_ws c;
    if is_name_start (peek c) then begin
      let name = parse_name c in
      skip_ws c;
      expect c '=';
      skip_ws c;
      let value = parse_attr_value c in
      go ((name, value) :: acc)
    end
    else List.rev acc
  in
  go []

let trim_text s =
  let n = String.length s in
  let is_ws ch = ch = ' ' || ch = '\t' || ch = '\r' || ch = '\n' in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_ws s.[!i] do
    incr i
  done;
  while !j >= !i && is_ws s.[!j] do
    decr j
  done;
  if !j < !i then "" else String.sub s !i (!j - !i + 1)

(* Parse the body of an element whose start tag has been consumed, up to and
   including its end tag. *)
let rec parse_content c tag attrs =
  let text = Buffer.create 16 in
  let children = ref [] in
  let add s =
    Buffer.add_string text s;
    Buffer.add_string c.run s
  in
  let rec go () =
    if eof c then fail c (Printf.sprintf "unterminated element <%s>" tag)
    else if peek c = '<' then begin
      match peek2 c with
      | '/' ->
        flush_run c;
        skip_string c "</";
        skip_ws c;
        let close = parse_name c in
        if not (String.equal close tag) then
          fail c (Printf.sprintf "mismatched tags: <%s> closed by </%s>" tag close);
        skip_ws c;
        expect c '>';
        emit c Sax.Close
      | '!' ->
        if looking_at c "<!--" then begin
          flush_run c;
          skip_string c "<!--";
          skip_until c "-->"
        end
        else if looking_at c "<![CDATA[" then begin
          skip_string c "<![CDATA[";
          let start = c.pos in
          let rec find () =
            if eof c then fail c "unterminated CDATA section"
            else if looking_at c "]]>" then begin
              add (String.sub c.input start (c.pos - start));
              skip_string c "]]>"
            end
            else begin
              advance c;
              find ()
            end
          in
          find ()
        end
        else fail c "unexpected markup declaration inside element";
        go ()
      | '?' ->
        flush_run c;
        skip_string c "<?";
        skip_until c "?>";
        go ()
      | _ ->
        flush_run c;
        let child = parse_element c in
        children := child :: !children;
        go ()
    end
    else if peek c = '&' then begin
      advance c;
      add (parse_entity c);
      go ()
    end
    else begin
      add (String.make 1 (peek c));
      advance c;
      go ()
    end
  in
  go ();
  Elem.make ~attrs
    ~text:(trim_text (Buffer.contents text))
    ~children:(List.rev !children) tag

and parse_element c =
  expect c '<';
  let tag = parse_name c in
  let attrs = parse_attrs c in
  skip_ws c;
  emit c (Sax.Open { tag; attrs });
  if looking_at c "/>" then begin
    skip_string c "/>";
    emit c Sax.Close;
    Elem.make ~attrs tag
  end
  else begin
    expect c '>';
    parse_content c tag attrs
  end

(* Skip prolog material: XML declaration, comments, PIs, DOCTYPE. *)
let skip_prolog c =
  let rec go () =
    skip_ws c;
    if looking_at c "<?" then begin
      skip_string c "<?";
      skip_until c "?>";
      go ()
    end
    else if looking_at c "<!--" then begin
      skip_string c "<!--";
      skip_until c "-->";
      go ()
    end
    else if looking_at c "<!DOCTYPE" then begin
      skip_string c "<!DOCTYPE";
      (* Skip to the matching '>', allowing one level of bracketed internal
         subset. *)
      let depth = ref 0 in
      let rec scan () =
        if eof c then fail c "unterminated DOCTYPE"
        else
          match peek c with
          | '[' ->
            incr depth;
            advance c;
            scan ()
          | ']' ->
            decr depth;
            advance c;
            scan ()
          | '>' when !depth = 0 -> advance c
          | _ ->
            advance c;
            scan ()
      in
      scan ();
      go ()
    end
  in
  go ()

(* The root element and the event stream, or the first error. *)
let parse input =
  let c = cursor input in
  try
    skip_prolog c;
    if eof c then fail c "empty document";
    let root = parse_element c in
    skip_prolog c;
    skip_ws c;
    if not (eof c) then fail c "trailing content after root element";
    Ok (root, List.rev c.events)
  with Xml_parser.Parse_error e -> Error e
