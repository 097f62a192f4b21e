(* Minimal JSON: the benchmark prints its results as JSON and [compare]
   reads them (and BENCHMARK.json) back.  Numbers are printed with all
   17 significant digits so that a reread value is the measured one. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number f)
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf (Str k);
        Buffer.add_string buf ": ";
        write buf v)
      l;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let to_file path v =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc (to_string v);
  output_char oc '\n';
  flush oc

(* --- Reading ------------------------------------------------------------ *)

exception Syntax of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if Char.equal (peek ()) c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
  in
  let str () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some code -> utf8 buf code
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | c -> Buffer.add_char buf c);
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if Char.equal (peek ()) '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws ();
          let k = str () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      skip_ws ();
      if Char.equal (peek ()) ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> num ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Syntax msg -> Error msg

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
