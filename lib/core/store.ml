open Xmlest_histogram

(* The .xsum container, version 2.

   xsum 2\n
   grid uniform <size> <max_pos>\n          (or grid boundaries <size> <max_pos> <b1..>)
   u32 cells                                 size², checked against the grid line
   u32 population offset, u32 population runs
   u32 sections, u32 table bytes, u32 payload bytes
   section table                             [sections] entries, [table bytes] long
   payload                                   [payload bytes] long

   A section table entry is
   u8 flags (1 no-overlap, 2 tag, 4 coverage, 8 levels),
   three length-prefixed strings (u32 length, bytes): name, tag (empty
   without the tag flag), syntax; then three (u32 offset, u32 count)
   pairs into the payload: histogram runs, coverage entries, level
   counts (zero for an absent part).  Every integer is little-endian.

   The payload holds only non-zero content: a run is (u32 cell, f64
   value), 12 bytes; a coverage entry (u32 covered, u32 covering, f64
   fraction), 16 bytes; a level count one f64.  Floats are stored as
   their bits, so a round trip reproduces every value exactly.  Sections
   of the same predicate name share their payload. *)

type section = {
  name : string;
  tag : string option;
  syntax : string;
  no_overlap : bool;
  hist : int array * float array;
  cvg : (int * int * float) list option;
  lvl : float array option;
}

let magic = "xsum 2"
let run_bytes = 12
let entry_bytes = 16
let level_bytes = 8
let flag_no_overlap = 1
let flag_tag = 2
let flag_cvg = 4
let flag_lvl = 8
let min_entry_bytes = 1 + (3 * 4) + (6 * 4)

(* --- Writer ------------------------------------------------------------ *)

let grid_line g =
  if Grid.is_uniform g then
    Printf.sprintf "grid uniform %d %d" g.Grid.size g.Grid.max_pos
  else begin
    let buf = Buffer.create 64 in
    Buffer.add_string buf
      (Printf.sprintf "grid boundaries %d %d" g.Grid.size g.Grid.max_pos);
    for i = 1 to g.Grid.size - 1 do
      Buffer.add_string buf (Printf.sprintf " %d" g.Grid.boundaries.(i))
    done;
    Buffer.contents buf
  end

let add_u32 buf v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Store.write: a field exceeds 32 bits";
  Buffer.add_int32_le buf (Int32.of_int v)

let add_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let add_string buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let write path ~grid ~population sections =
  let payload = Buffer.create 4096 and table = Buffer.create 1024 in
  (* each writer appends to the payload and returns (offset, count) *)
  let put_cells (at, v) =
    let off = Buffer.length payload in
    Array.iteri
      (fun k c ->
        add_u32 payload c;
        add_f64 payload v.(k))
      at;
    (off, Array.length at)
  in
  let put_cvg entries =
    let off = Buffer.length payload in
    List.iter
      (fun (covered, covering, frac) ->
        add_u32 payload covered;
        add_u32 payload covering;
        add_f64 payload frac)
      entries;
    (off, List.length entries)
  in
  let put_lvl counts =
    let off = Buffer.length payload in
    Array.iter (add_f64 payload) counts;
    (off, Array.length counts)
  in
  let pop_off, pop_runs = put_cells population in
  let written = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let spans =
        match Hashtbl.find_opt written s.name with
        | Some spans -> spans
        | None ->
          let spans =
            (put_cells s.hist, Option.map put_cvg s.cvg, Option.map put_lvl s.lvl)
          in
          Hashtbl.add written s.name spans;
          spans
      in
      let h, c, l = spans in
      let flag b f = if b then f else 0 in
      Buffer.add_uint8 table
        (flag s.no_overlap flag_no_overlap
        lor flag (Option.is_some s.tag) flag_tag
        lor flag (Option.is_some c) flag_cvg
        lor flag (Option.is_some l) flag_lvl);
      add_string table s.name;
      add_string table (Option.value s.tag ~default:"");
      add_string table s.syntax;
      List.iter
        (fun (off, n) ->
          add_u32 table off;
          add_u32 table n)
        [ h; Option.value c ~default:(0, 0); Option.value l ~default:(0, 0) ])
    sections;
  let header = Buffer.create 128 in
  Buffer.add_string header (magic ^ "\n" ^ grid_line grid ^ "\n");
  List.iter (add_u32 header)
    [
      Grid.cells grid; pop_off; pop_runs; List.length sections;
      Buffer.length table; Buffer.length payload;
    ];
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Buffer.output_buffer oc header;
      Buffer.output_buffer oc table;
      Buffer.output_buffer oc payload;
      (* flush inside the body so a write error surfaces as the primary
         exception, with the descriptor still released by the finally *)
      flush oc)

(* --- Reader ------------------------------------------------------------ *)

exception Bad_store of string
exception Corrupt of string

let fail msg = raise (Bad_store msg)

(* A part of the payload: absolute byte position in the file, count of
   records. *)
type span = { at : int; n : int }

type entry = {
  e_name : string;
  e_tag : string option;
  e_syntax : span;  (* bytes *)
  e_no_overlap : bool;
  e_hist : span;
  e_cvg : span option;
  e_lvl : span option;
}

type t = {
  buf : Bytes.t;  (* the whole file *)
  grid : Grid.t;
  population : span;
  entries : entry array;
  index : (string, int) Hashtbl.t;  (* name -> first section *)
}

let u32 buf pos = Int32.to_int (Bytes.get_int32_le buf pos) land 0xFFFF_FFFF
let f64 buf pos = Int64.float_of_bits (Bytes.get_int64_le buf pos)

let read_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create size in
  (* [Unix.read] moves at most 64 KiB per call *)
  let rec fill pos =
    if pos < size then
      match Unix.read fd buf pos (size - pos) with
      | 0 -> fail "file shrank while being read"
      | k -> fill (pos + k)
  in
  fill 0;
  buf

(* The text line starting at [pos]: its contents and the position after
   its newline. *)
let line buf pos =
  match Bytes.index_from_opt buf pos '\n' with
  | Some nl -> (Bytes.sub_string buf pos (nl - pos), nl + 1)
  | None -> fail "truncated store (unterminated header line)"

let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "")

let int_of w = try int_of_string w with Failure _ -> fail ("bad integer " ^ w)

(* The grid line, checked against the header's cell count before any
   grid is built; the grid constructors reject the remaining bad
   geometries (size 0, more buckets than positions). *)
let parse_grid l ~cells =
  let size w =
    let size = int_of w in
    if size > 0 && not (Int.equal (cells / size) size && Int.equal (cells mod size) 0) then
      fail (Printf.sprintf "grid size %d does not fit the store's %d cells" size cells);
    size
  in
  try
    match words l with
    | [ "grid"; "uniform"; sz; max_pos ] ->
      Grid.create ~size:(size sz) ~max_pos:(int_of max_pos)
    | "grid" :: "boundaries" :: sz :: max_pos :: inner ->
      let sz = size sz and max_pos = int_of max_pos in
      if not (Int.equal (List.length inner) (sz - 1)) then
        fail "boundary count mismatch";
      let inner = List.map int_of inner in
      Grid.of_boundaries (Array.of_list ((0 :: inner) @ [ max_pos + 1 ]))
    | _ -> fail "expected a grid line"
  with Invalid_argument msg -> fail msg

let read path =
  try
    let buf = read_file path in
    let size = Bytes.length buf in
    let starts p =
      size >= String.length p && String.equal (Bytes.sub_string buf 0 (String.length p)) p
    in
    if not (starts (magic ^ "\n")) then
      fail
        (if starts "xsum " then "unsupported store version"
         else "not an xsum store (bad magic)");
    let grid_l, pos = line buf (String.length magic + 1) in
    if pos + 24 > size then fail "truncated store (header)";
    let field k = u32 buf (pos + (4 * k)) in
    let cells = field 0 and nsections = field 3 in
    let table_at = pos + 24 and table_bytes = field 4 and payload_bytes = field 5 in
    let payload_at = table_at + table_bytes in
    if payload_at + payload_bytes > size then fail "truncated store";
    if payload_at + payload_bytes < size then fail "trailing bytes after the payload";
    let grid = parse_grid grid_l ~cells in
    let span ~width off n =
      if off + (n * width) > payload_bytes then fail "a section runs past the payload";
      { at = payload_at + off; n }
    in
    let population = span ~width:run_bytes (field 1) (field 2) in
    if nsections * min_entry_bytes > table_bytes then
      fail "the section count does not fit the table";
    (* the section table, parsed with bounds checks against its end *)
    let cur = ref table_at in
    let need k =
      if !cur + k > payload_at then fail "the section table runs past its end"
    in
    let next_u32 () =
      need 4;
      let v = u32 buf !cur in
      cur := !cur + 4;
      v
    in
    let next_bytes () =
      let n = next_u32 () in
      need n;
      let s = { at = !cur; n } in
      cur := !cur + n;
      s
    in
    let next_string () =
      let s = next_bytes () in
      Bytes.sub_string buf s.at s.n
    in
    let next_span ~width =
      let off = next_u32 () in
      let n = next_u32 () in
      span ~width off n
    in
    let index = Hashtbl.create 64 in
    let entries =
      Array.init nsections (fun k ->
          need 1;
          let flags = Bytes.get_uint8 buf !cur in
          incr cur;
          if flags land lnot 15 <> 0 then fail "bad section flags";
          let has f = flags land f <> 0 in
          let e_name = next_string () in
          let tag = next_string () in
          let e_syntax = next_bytes () in
          let e_hist = next_span ~width:run_bytes in
          let cvg = next_span ~width:entry_bytes in
          let lvl = next_span ~width:level_bytes in
          if not (Hashtbl.mem index e_name) then Hashtbl.add index e_name k;
          {
            e_name;
            e_tag = (if has flag_tag then Some tag else None);
            e_syntax;
            e_no_overlap = has flag_no_overlap;
            e_hist;
            e_cvg = (if has flag_cvg then Some cvg else None);
            e_lvl = (if has flag_lvl then Some lvl else None);
          })
    in
    if not (Int.equal !cur payload_at) then fail "section table length mismatch";
    Ok { buf; grid; population; entries; index }
  with
  | Bad_store msg -> Error msg
  | Sys_error msg -> Error msg
  | Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

let grid t = t.grid
let length t = Array.length t.entries
let find t name = Hashtbl.find_opt t.index name
let name t k = t.entries.(k).e_name
let tags t = List.filter_map (fun e -> e.e_tag) (Array.to_list t.entries)
let has_levels t = Array.exists (fun e -> Option.is_some e.e_lvl) t.entries

(* --- Section decoding and validation ----------------------------------- *)

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* Counts are exact integers: the histogram totals derived from them are
   then exact sums, whatever the order of summation. *)
let is_count x = Float.is_integer x && x >= 0.0 && x <= 0x1p53

(* [c] is a cell of the grid's upper triangle. *)
let on_grid t c =
  let g = t.grid.Grid.size in
  c < g * g && c / g <= c mod g

let cells t what s =
  let at = Array.make s.n 0 and v = Array.make s.n 0.0 in
  for k = 0 to s.n - 1 do
    let p = s.at + (k * run_bytes) in
    let c = u32 t.buf p and x = f64 t.buf (p + 4) in
    if k > 0 && c <= at.(k - 1) then corrupt "%s: cells not strictly ascending" what;
    if not (on_grid t c) then corrupt "%s: cell %d is off the grid's upper triangle" what c;
    if not (is_count x) then corrupt "%s: cell %d holds %h, not a count" what c x;
    at.(k) <- c;
    v.(k) <- x
  done;
  (at, v)

let coverage t what s =
  let entries = ref [] in
  for k = 0 to s.n - 1 do
    let p = s.at + (k * entry_bytes) in
    let covered = u32 t.buf p and covering = u32 t.buf (p + 4) in
    let frac = f64 t.buf (p + 8) in
    if not (on_grid t covered && on_grid t covering) then
      corrupt "%s: coverage entry %d is off the grid's upper triangle" what k;
    (match !entries with
    | (c, m, _) :: _ when c > covered || (Int.equal c covered && m >= covering) ->
      corrupt "%s: coverage entries not strictly ascending" what
    | _ -> ());
    if not (frac >= 0.0 && frac <= 1.0) then
      corrupt "%s: coverage fraction %h outside [0, 1]" what frac;
    entries := (covered, covering, frac) :: !entries
  done;
  List.rev !entries

let levels t what s =
  if s.n < 1 then corrupt "%s: no level counts" what;
  Array.init s.n (fun k ->
      let x = f64 t.buf (s.at + (k * level_bytes)) in
      if not (is_count x) then corrupt "%s: level %d holds %h, not a count" what k x;
      x)

let population t = cells t "population" t.population

let section t k =
  let e = t.entries.(k) in
  let what = "section " ^ e.e_name in
  {
    name = e.e_name;
    tag = e.e_tag;
    syntax = Bytes.sub_string t.buf e.e_syntax.at e.e_syntax.n;
    no_overlap = e.e_no_overlap;
    hist = cells t what e.e_hist;
    cvg = Option.map (coverage t what) e.e_cvg;
    lvl = Option.map (levels t what) e.e_lvl;
  }
