(* SAX-style pull parser: the project's one XML grammar, as an event
   stream over a bounded refill buffer.  Xml_parser folds the events into
   an Elem tree; Summary.build_stream consumes them directly, so a
   document of any size parses in O(depth + buffer) memory.

   The scanners work on runs, not bytes: text up to '<' or '&', names,
   attribute values, whitespace and the bodies of comments, PIs and CDATA
   sections are found by a tight loop over the buffer and then copied out
   (or skipped) in one piece.  Line and column are not tracked per byte:
   [sync] counts the newlines of the consumed span when an error needs a
   position, and before a refill discards consumed bytes.

   Names are interned: a name is hashed straight from the buffer and
   looked up in a per-parser table, so a repeated tag or attribute name
   costs no string.  The table holds at most [intern_cap] names of at
   most [intern_max_len] bytes; any other name is copied out as it comes,
   so the table's memory stays bounded whatever the document.

   The byte-class tests, the byte readers and the per-event steps are
   marked [@inline]: ocamlopt without flambda inlines only the smallest
   functions, and a call per scanned byte or per event step cost about a
   fifth of a drain. *)

type error = { line : int; column : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "XML parse error at %d:%d: %s" e.line e.column e.message

exception Parse_error of error

type event =
  | Open of { tag : string; attrs : (string * string) list }
  | Text of string
  | Close

let intern_cap = 4096 (* names a parser interns *)
let intern_max_len = 256 (* bytes of the longest name it interns *)

(* Byte source with a small lookahead window ([ensure]).  [refill = None]
   means the buffer already holds the whole input (of_string), and is
   then never written. *)
type reader = {
  refill : (bytes -> int -> int -> int) option;
  buf : Bytes.t;
  mutable rpos : int;  (* cursor within [buf] *)
  mutable rlen : int;  (* end of valid data in [buf] *)
  mutable drained : bool;  (* no input beyond [rlen] *)
  mutable synced : int;  (* [line] and [col] are those of [buf.[synced]] *)
  mutable line : int;
  mutable col : int;
  mutable names : string array;  (* open addressing, "" = empty slot *)
  mutable interned : int;
}

let reader_of_string s =
  {
    refill = None;
    buf = Bytes.unsafe_of_string s;
    rpos = 0;
    rlen = String.length s;
    drained = true;
    synced = 0;
    line = 1;
    col = 1;
    names = Array.make 64 "";
    interned = 0;
  }

let reader_of_channel ic =
  {
    refill = Some (fun b pos len -> input ic b pos len);
    buf = Bytes.create 65536;
    rpos = 0;
    rlen = 0;
    drained = false;
    synced = 0;
    line = 1;
    col = 1;
    names = Array.make 64 "";
    interned = 0;
  }

(* Bring [line] and [col] up to [rpos]: count the span's newlines and
   note the last, so the loop touches no record field. *)
let sync r =
  let lines = ref 0 and last = ref (-1) in
  for i = r.synced to r.rpos - 1 do
    if Char.equal (Bytes.unsafe_get r.buf i) '\n' then begin
      incr lines;
      last := i
    end
  done;
  if !lines > 0 then begin
    r.line <- r.line + !lines;
    r.col <- r.rpos - !last
  end
  else r.col <- r.col + (r.rpos - r.synced);
  r.synced <- r.rpos

(* Make at least [n] bytes (or everything up to end of input) available at
   [rpos]; [n] never exceeds [intern_max_len + 1], far below the buffer
   size. *)
let ensure r n =
  if r.rlen - r.rpos < n && not r.drained then begin
    match r.refill with
    | None -> ()
    | Some read ->
      if r.rpos > 0 then begin
        sync r;
        Bytes.blit r.buf r.rpos r.buf 0 (r.rlen - r.rpos);
        r.rlen <- r.rlen - r.rpos;
        r.rpos <- 0;
        r.synced <- 0
      end;
      while r.rlen - r.rpos < n && not r.drained do
        let k = read r.buf r.rlen (Bytes.length r.buf - r.rlen) in
        if k = 0 then r.drained <- true else r.rlen <- r.rlen + k
      done
  end

let fail r message =
  sync r;
  raise (Parse_error { line = r.line; column = r.col; message })

(* The byte readers test the buffer first and call [ensure] only at its
   end: [ensure] holds a loop, so ocamlopt never inlines it, while these
   stay small enough to be.  [rlen <= Bytes.length buf] always holds,
   which is what makes the unchecked reads safe. *)

let refill_eof r =
  ensure r 1;
  r.rlen - r.rpos = 0

let[@inline] eof r = r.rpos >= r.rlen && refill_eof r

let peek_slow r =
  ensure r 1;
  if r.rlen - r.rpos = 0 then '\000' else Bytes.get r.buf r.rpos

let[@inline] peek r = if r.rpos < r.rlen then Bytes.unsafe_get r.buf r.rpos else peek_slow r

let peek2_slow r =
  ensure r 2;
  if r.rlen - r.rpos < 2 then '\000' else Bytes.get r.buf (r.rpos + 1)

let[@inline] peek2 r =
  if r.rpos + 1 < r.rlen then Bytes.unsafe_get r.buf (r.rpos + 1) else peek2_slow r

let[@inline] advance r =
  if r.rpos < r.rlen || not (refill_eof r) then r.rpos <- r.rpos + 1

let[@inline] expect r ch =
  if Char.equal (peek r) ch then advance r
  else fail r (Printf.sprintf "expected %C, found %C" ch (peek r))

let[@inline] looking_at r s =
  let n = String.length s in
  ensure r n;
  r.rlen - r.rpos >= n
  &&
  let k = ref 0 in
  while !k < n && Char.equal (Bytes.get r.buf (r.rpos + !k)) (String.get s !k) do
    incr k
  done;
  Int.equal !k n

(* Consume [s] if it is next in the input. *)
let[@inline] eat r s =
  looking_at r s
  && begin
       r.rpos <- r.rpos + String.length s;
       true
     end

(* --- Run scanners ------------------------------------------------------- *)

(* [scan buf i lim] is the index of the first byte in [i, lim) that ends
   the run, or [lim]; [i <= lim <= Bytes.length buf] always holds, which
   is what makes the unchecked reads safe. *)

let[@inline] is_name_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || ch = ':'

let[@inline] is_name_char ch =
  is_name_start ch || (ch >= '0' && ch <= '9') || ch = '-' || ch = '.'

let[@inline] is_ws = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let rec scan_text buf i lim =
  if i < lim && match Bytes.unsafe_get buf i with '<' | '&' -> false | _ -> true
  then scan_text buf (i + 1) lim
  else i

let rec scan_name buf i lim =
  if i < lim && is_name_char (Bytes.unsafe_get buf i) then scan_name buf (i + 1) lim
  else i

let rec scan_ws buf i lim =
  if i < lim && is_ws (Bytes.unsafe_get buf i) then scan_ws buf (i + 1) lim else i

(* One scanner per quote character, so an attribute value takes no
   partial application. *)
let rec scan_attr_dq buf i lim =
  if i < lim && match Bytes.unsafe_get buf i with '"' | '&' -> false | _ -> true
  then scan_attr_dq buf (i + 1) lim
  else i

let rec scan_attr_sq buf i lim =
  if i < lim && match Bytes.unsafe_get buf i with '\'' | '&' -> false | _ -> true
  then scan_attr_sq buf (i + 1) lim
  else i

let rec scan_to ch buf i lim =
  if i < lim && not (Char.equal (Bytes.unsafe_get buf i) ch) then
    scan_to ch buf (i + 1) lim
  else i

(* Append the run at [rpos] to [b] and consume it, refilling across the
   buffer edge. *)
let rec take_into r scan b =
  let stop = scan r.buf r.rpos r.rlen in
  Buffer.add_subbytes b r.buf r.rpos (stop - r.rpos);
  r.rpos <- stop;
  if Int.equal stop r.rlen && not r.drained then begin
    ensure r 1;
    if r.rpos < r.rlen then take_into r scan b
  end

(* The run at [rpos], consumed; one copy when it ends inside the buffer. *)
let[@inline] take r scan =
  let stop = scan r.buf r.rpos r.rlen in
  if stop < r.rlen || r.drained then begin
    let s = Bytes.sub_string r.buf r.rpos (stop - r.rpos) in
    r.rpos <- stop;
    s
  end
  else begin
    let b = Buffer.create 64 in
    take_into r scan b;
    Buffer.contents b
  end

(* Consume the run at [rpos] without copying it. *)
let rec skip r scan =
  r.rpos <- scan r.buf r.rpos r.rlen;
  if Int.equal r.rpos r.rlen && not r.drained then begin
    ensure r 1;
    if r.rpos < r.rlen then skip r scan
  end

(* Mostly there is no whitespace to skip: test the first byte inline. *)
let[@inline] skip_ws r =
  if r.rpos >= r.rlen || is_ws (Bytes.unsafe_get r.buf r.rpos) then skip r scan_ws

(* Skip past the terminator [s], inclusive: comments and PIs. *)
let skip_until r s =
  let to_first = scan_to (String.get s 0) in
  let rec go () =
    skip r to_first;
    if eof r then fail r (Printf.sprintf "unterminated construct, expected %S" s)
    else if not (eat r s) then begin
      r.rpos <- r.rpos + 1;
      go ()
    end
  in
  go ()

(* --- Interned names ------------------------------------------------------ *)

(* [names] is an open-addressing table with linear probing, kept at most
   half full: it starts at 64 slots and doubles up to [2 * intern_cap]. *)

let[@inline] hash_name b i n =
  let h = ref 0 in
  for k = i to i + n - 1 do
    h := (!h * 31) + Char.code (Bytes.unsafe_get b k)
  done;
  !h lxor (!h lsr 17)

(* [s] is the [n] bytes of [b] at [i]; [i + n <= Bytes.length b]. *)
let[@inline] same_name s b i n =
  Int.equal (String.length s) n
  &&
  let k = ref 0 in
  while !k < n && Char.equal (String.unsafe_get s !k) (Bytes.unsafe_get b (i + !k)) do
    incr k
  done;
  Int.equal !k n

(* The slot holding the name [b.[i .. i+n-1]], or the empty one where it
   would go; names are never empty, so [""] marks an empty slot. *)
let rec probe names b i n slot =
  let s = Array.unsafe_get names slot in
  if Int.equal (String.length s) 0 || same_name s b i n then slot
  else probe names b i n ((slot + 1) land (Array.length names - 1))

let[@inline] slot_of names b i n = probe names b i n (hash_name b i n land (Array.length names - 1))

let grow_names r =
  let names = Array.make (2 * Array.length r.names) "" in
  Array.iter
    (fun s ->
      let b = Bytes.unsafe_of_string s and n = String.length s in
      if n > 0 then names.(slot_of names b 0 n) <- s)
    r.names;
  r.names <- names

(* The name [b.[i .. i+n-1]]: the interned string when the table has it,
   a fresh copy otherwise, kept in the table while it has room. *)
let[@inline] intern r b i n =
  if n > intern_max_len then Bytes.sub_string b i n
  else begin
    let slot = slot_of r.names b i n in
    let s = Array.unsafe_get r.names slot in
    if String.length s > 0 then s
    else begin
      let s = Bytes.sub_string b i n in
      if r.interned < intern_cap then begin
        r.names.(slot) <- s;
        r.interned <- r.interned + 1;
        if 2 * r.interned >= Array.length r.names && r.interned < intern_cap then
          grow_names r
      end;
      s
    end
  end

let[@inline] parse_name r =
  let ch = peek r in
  if not (is_name_start ch) then fail r (Printf.sprintf "expected a name, found %C" ch);
  let stop = scan_name r.buf r.rpos r.rlen in
  if stop < r.rlen || r.drained then begin
    let s = intern r r.buf r.rpos (stop - r.rpos) in
    r.rpos <- stop;
    s
  end
  else begin
    (* the name runs into the refill edge *)
    let s = take r scan_name in
    intern r (Bytes.unsafe_of_string s) 0 (String.length s)
  end

(* Consume the name [s] if the input holds it next as a whole name,
   compared in place; [false], consuming nothing, otherwise. *)
let[@inline] eat_name r s =
  let n = String.length s in
  n <= intern_max_len
  && begin
       ensure r (n + 1);
       let avail = r.rlen - r.rpos in
       (Int.equal avail n
       || (avail > n && not (is_name_char (Bytes.unsafe_get r.buf (r.rpos + n)))))
       && same_name s r.buf r.rpos n
       && begin
            r.rpos <- r.rpos + n;
            true
          end
     end

(* --- Entities ------------------------------------------------------------ *)

let utf_8 code =
  let b = Buffer.create 4 in
  let lead bits = Buffer.add_char b (Char.chr bits) in
  let cont shift = lead (0x80 lor ((code lsr shift) land 0x3F)) in
  if code < 0x80 then lead code
  else if code < 0x800 then begin
    lead (0xC0 lor (code lsr 6));
    cont 0
  end
  else if code < 0x10000 then begin
    lead (0xE0 lor (code lsr 12));
    cont 6;
    cont 0
  end
  else begin
    lead (0xF0 lor (code lsr 18));
    cont 12;
    cont 6;
    cont 0
  end;
  Buffer.contents b

(* The code point of a character reference [name] = "#ddd" or "#xhhh":
   decimal or hex digits only, at most 0x10FFFF; [-1] otherwise. *)
let char_ref_code name =
  let n = String.length name in
  let hex = n > 1 && (name.[1] = 'x' || name.[1] = 'X') in
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' when hex -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' when hex -> Char.code ch - Char.code 'A' + 10
    | _ -> -1
  in
  let base = if hex then 16 else 10 in
  let rec value k acc =
    if acc > 0x10FFFF then -1
    else if k >= n then acc
    else
      let d = digit name.[k] in
      if d < 0 then -1 else value (k + 1) ((acc * base) + d)
  in
  let first = if hex then 2 else 1 in
  if n <= first then -1 else value first 0

(* Decode an entity reference starting just after '&': up to 12 bytes
   of name, then ';'. *)
let parse_entity r =
  ensure r 13;
  let lim = Int.min r.rlen (r.rpos + 13) in
  let semi = scan_to ';' r.buf r.rpos lim in
  if Int.equal semi lim then begin
    r.rpos <- Int.min r.rlen (r.rpos + 12);
    fail r "unterminated entity reference"
  end;
  let name = Bytes.sub_string r.buf r.rpos (semi - r.rpos) in
  r.rpos <- semi + 1;
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
    if String.length name > 1 && name.[0] = '#' then begin
      let code = char_ref_code name in
      if code < 0 then fail r (Printf.sprintf "bad character reference &%s;" name);
      utf_8 code
    end
    else fail r (Printf.sprintf "unknown entity &%s;" name)

(* --- Markup ---------------------------------------------------------------- *)

(* Past the value's closing [quote]: [true]; at a '&': [false]. *)
let[@inline] attr_closed r quote =
  if eof r then fail r "unterminated attribute value"
  else if Char.equal (peek r) quote then begin
    advance r;
    true
  end
  else false

(* The rest of a value from a '&' on, into [b]. *)
let rec attr_value_rest r quote scan b =
  advance r;
  Buffer.add_string b (parse_entity r);
  take_into r scan b;
  if not (attr_closed r quote) then attr_value_rest r quote scan b

let parse_attr_value r =
  let quote = peek r in
  if quote <> '"' && quote <> '\'' then fail r "expected quoted attribute value";
  advance r;
  let scan = if Char.equal quote '"' then scan_attr_dq else scan_attr_sq in
  let first = take r scan in
  if attr_closed r quote then first
  else begin
    let b = Buffer.create (String.length first + 16) in
    Buffer.add_string b first;
    attr_value_rest r quote scan b;
    Buffer.contents b
  end

let rec parse_attrs r acc =
  skip_ws r;
  if is_name_start (peek r) then begin
    let name = parse_name r in
    skip_ws r;
    expect r '=';
    skip_ws r;
    let value = parse_attr_value r in
    parse_attrs r ((name, value) :: acc)
  end
  else List.rev acc

let is_blank s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && is_ws (String.unsafe_get s !i) do
    incr i
  done;
  Int.equal !i n

let trim_text s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_ws s.[!i] do
    incr i
  done;
  while !j >= !i && is_ws s.[!j] do
    decr j
  done;
  if !j < !i then ""
  else if !i = 0 && Int.equal !j (n - 1) then s
  else String.sub s !i (!j - !i + 1)

(* Skip prolog material: XML declaration, comments, PIs, DOCTYPE. *)
let skip_prolog r =
  let rec go () =
    skip_ws r;
    if eat r "<?" then begin
      skip_until r "?>";
      go ()
    end
    else if eat r "<!--" then begin
      skip_until r "-->";
      go ()
    end
    else if eat r "<!DOCTYPE" then begin
      (* To the matching '>', past a bracketed internal subset. *)
      let rec scan depth =
        if eof r then fail r "unterminated DOCTYPE"
        else begin
          let ch = peek r in
          advance r;
          match ch with
          | '[' -> scan (depth + 1)
          | ']' -> scan (depth - 1)
          | '>' when depth = 0 -> ()
          | _ -> scan depth
        end
      in
      scan 0;
      go ()
    end
  in
  go ()

(* The body of a CDATA section, just after "<![CDATA[", into [b]. *)
let cdata_into r b =
  let rec go () =
    take_into r (scan_to ']') b;
    if eof r then fail r "unterminated CDATA section"
    else if not (eat r "]]>") then begin
      Buffer.add_char b ']';
      r.rpos <- r.rpos + 1;
      go ()
    end
  in
  go ()

(* At "<![CDATA["; the second byte is tested first, as markup inside
   text is mostly a tag. *)
let[@inline] at_cdata r = Char.equal (peek2 r) '!' && looking_at r "<![CDATA["

(* One contiguous run of character data: raw text, entity references and
   CDATA sections, ended by other markup or end of input.  Comments and
   PIs also end the run: a consumer concatenates the runs of an element
   to get its character data. *)
let[@inline] parse_text_run r =
  let first = take r scan_text in
  if eof r || (Char.equal (peek r) '<' && not (at_cdata r)) then first
  else begin
    let b = Buffer.create (String.length first + 64) in
    Buffer.add_string b first;
    let rec go () =
      if not (eof r) then
        match peek r with
        | '&' ->
          advance r;
          Buffer.add_string b (parse_entity r);
          go ()
        | '<' ->
          if at_cdata r then begin
            r.rpos <- r.rpos + 9;
            cdata_into r b;
            go ()
          end
        | _ ->
          take_into r scan_text b;
          go ()
    in
    go ();
    Buffer.contents b
  end

type t = {
  r : reader;
  mutable stack : string list;  (* open elements, innermost first *)
  mutable state : [ `Prolog | `Content | `Epilog | `Done ];
  mutable pending : bool;  (* a Close queued behind a self-closing Open *)
}

let of_string s = { r = reader_of_string s; stack = []; state = `Prolog; pending = false }

let of_channel ic =
  { r = reader_of_channel ic; stack = []; state = `Prolog; pending = false }

(* Consume "<tag attrs>" or "<tag attrs/>" and push [tag]. *)
let[@inline] parse_open t =
  let r = t.r in
  expect r '<';
  let tag = parse_name r in
  let attrs = parse_attrs r [] in
  skip_ws r;
  if Char.equal (peek r) '/' && eat r "/>" then t.pending <- true else expect r '>';
  t.stack <- tag :: t.stack;
  t.state <- `Content;
  Some (Open { tag; attrs })

let[@inline] close_element t =
  match t.stack with
  | [] -> assert false
  | _ :: rest ->
    t.stack <- rest;
    if List.is_empty rest then t.state <- `Epilog;
    Some Close

let rec text_event t = match parse_text_run t.r with "" -> next t | s -> Some (Text s)

and next t =
  if t.pending then begin
    t.pending <- false;
    close_element t
  end
  else
    let r = t.r in
    match t.state with
    | `Done -> None
    | `Epilog ->
      skip_prolog r;
      skip_ws r;
      if not (eof r) then fail r "trailing content after root element";
      t.state <- `Done;
      None
    | `Prolog ->
      skip_prolog r;
      if eof r then fail r "empty document";
      parse_open t
    | `Content -> (
      let top = match t.stack with tag :: _ -> tag | [] -> assert false in
      if eof r then fail r (Printf.sprintf "unterminated element <%s>" top)
      else if peek r <> '<' then text_event t
      else
        match peek2 r with
        | '/' ->
          r.rpos <- r.rpos + 2;
          skip_ws r;
          if not (eat_name r top) then begin
            let close = parse_name r in
            if not (String.equal close top) then
              fail r (Printf.sprintf "mismatched tags: <%s> closed by </%s>" top close)
          end;
          skip_ws r;
          expect r '>';
          close_element t
        | '!' ->
          if eat r "<!--" then begin
            skip_until r "-->";
            next t
          end
          else if at_cdata r then text_event t
          else fail r "unexpected markup declaration inside element"
        | '?' ->
          r.rpos <- r.rpos + 2;
          skip_until r "?>";
          next t
        | _ -> parse_open t)

let fold f init t =
  let rec go acc = match next t with None -> acc | Some ev -> go (f acc ev) in
  go init
