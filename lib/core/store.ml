open Xmlest_histogram

(* The .xsum container: a small line-oriented header describing the grid
   and per-predicate sections, followed by one flat little-endian float64
   payload.  Every number a histogram needs at query time — cell counts,
   coverage entries, populations, level counts — lives in the payload, so
   opening a store is O(header): parse a few dozen lines, memory-map the
   payload once, and hand each histogram a [F64.sub] slice of the mapping.

   The header's only self-reference is the payload byte offset on line 2;
   it is printed at fixed width so the header length does not depend on
   its value (render once with 0, measure, render again with the real
   offset).  Slot numbers are float indices into the payload; slot 0 is a
   sentinel 1.0 whose bit pattern doubles as an endianness check. *)

type hist_view = { h_total : float; h_cells : F64.t }

type cvg_view = {
  c_entries : int;
  c_offsets : F64.t;  (* cells + 1 row offsets, exact small integers *)
  c_data : F64.t;  (* 2 * entries: covering index, fraction *)
  c_populations : F64.t;  (* cells *)
  c_total_cvg : F64.t;  (* cells *)
}

type block = {
  b_syntax : string;  (* Predicate.to_syntax, one line *)
  b_no_overlap : bool;
  b_hist : hist_view;
  b_cvg : cvg_view option;
  b_lvl : F64.t option;
}

type t = { s_grid : Grid.t; s_population : hist_view; s_blocks : block list }

let magic = "xsum 1"

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

let cvg_entries c = c.c_entries

(* Floats per coverage section: row offsets, CSR data, populations,
   per-cell totals — one contiguous region so the reader slices it with
   four [F64.sub] calls. *)
let cvg_floats ~cells c = cells + 1 + (2 * cvg_entries c) + cells + cells

let write path ~grid ~population ~blocks =
  let cells = Grid.cells grid in
  let cursor = ref 1 (* slot 0: sentinel *) in
  let alloc n =
    let s = !cursor in
    cursor := s + n;
    s
  in
  let pop_slot = alloc cells in
  let planned =
    List.map
      (fun b ->
        let hist_slot = alloc cells in
        let cvg_slot = Option.map (fun c -> alloc (cvg_floats ~cells c)) b.b_cvg in
        let lvl_slot = Option.map (fun l -> alloc (F64.length l)) b.b_lvl in
        (b, hist_slot, cvg_slot, lvl_slot))
      blocks
  in
  let count = !cursor in
  let render offset =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (magic ^ "\n");
    Buffer.add_string buf (Printf.sprintf "payload %012d %012d\n" offset count);
    Buffer.add_string buf (grid_line grid ^ "\n");
    Buffer.add_string buf
      (Printf.sprintf "population %d %.17g\n" pop_slot population.h_total);
    Buffer.add_string buf
      (Printf.sprintf "predicates %d\n" (List.length blocks));
    List.iter
      (fun (b, hist_slot, cvg_slot, lvl_slot) ->
        Buffer.add_string buf
          (Printf.sprintf "predicate %d hist %d %.17g"
             (if b.b_no_overlap then 1 else 0)
             hist_slot b.b_hist.h_total);
        (match (b.b_cvg, cvg_slot) with
        | Some c, Some slot ->
          Buffer.add_string buf
            (Printf.sprintf " coverage %d %d" (cvg_entries c) slot)
        | _, _ -> Buffer.add_string buf " coverage none");
        (match (b.b_lvl, lvl_slot) with
        | Some l, Some slot ->
          Buffer.add_string buf
            (Printf.sprintf " level %d %d" (F64.length l) slot)
        | _, _ -> Buffer.add_string buf " level none");
        Buffer.add_string buf (" syntax " ^ b.b_syntax ^ "\n"))
      planned;
    Buffer.add_string buf "end\n";
    Buffer.contents buf
  in
  let base = String.length (render 0) in
  let offset = 8 * ((base + 7) / 8) in
  let header = render offset in
  let bytes = Bytes.create (8 * count) in
  let put slot v = Bytes.set_int64_le bytes (8 * slot) (Int64.bits_of_float v) in
  let put_vec slot (a : F64.t) =
    for k = 0 to F64.length a - 1 do
      put (slot + k) a.{k}
    done
  in
  put 0 1.0;
  put_vec pop_slot population.h_cells;
  List.iter
    (fun (b, hist_slot, cvg_slot, lvl_slot) ->
      put_vec hist_slot b.b_hist.h_cells;
      (match (b.b_cvg, cvg_slot) with
      | Some c, Some slot ->
        put_vec slot c.c_offsets;
        let data_slot = slot + cells + 1 in
        put_vec data_slot c.c_data;
        let pop_slot = data_slot + (2 * cvg_entries c) in
        put_vec pop_slot c.c_populations;
        put_vec (pop_slot + cells) c.c_total_cvg
      | _, _ -> ());
      match (b.b_lvl, lvl_slot) with
      | Some l, Some slot -> put_vec slot l
      | _, _ -> ())
    planned;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      output_string oc (String.make (offset - base) '\n');
      output_bytes oc bytes;
      (* flush inside the body so a write error surfaces as the primary
         exception, with the descriptor still released by the finally *)
      flush oc)

(* --- Reader ------------------------------------------------------------ *)

exception Bad_store of string

let fail msg = raise (Bad_store msg)

let int_of w = try int_of_string w with Failure _ -> fail ("bad integer " ^ w)

let float_of w =
  try float_of_string w with Failure _ -> fail ("bad number " ^ w)

let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "")

(* Map the payload region copy-on-write: histograms opened from a store
   stay safely mutable (maintenance bumps cells in place) without ever
   writing the file back.  The mapping shares the header's descriptor —
   one [open] syscall per store open — and outlives it: the kernel keeps
   a mapping alive after its descriptor closes. *)
let map_payload fd ~offset ~count =
  let size = (Unix.fstat fd).Unix.st_size in
  if size < offset + (8 * count) then fail "truncated payload";
  let ga =
    Unix.map_file fd ~pos:(Int64.of_int offset) Bigarray.float64
      Bigarray.c_layout false [| count |]
  in
  Bigarray.array1_of_genarray ga

let open_in path =
  try
    let ic = Stdlib.open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let header_lines =
      let lines = ref [] in
      let rec go () =
        match input_line ic with
        | exception End_of_file -> fail "unexpected end of header"
        | "end" -> List.rev !lines
        | l ->
          lines := l :: !lines;
          go ()
      in
      go ()
    in
    let lines = ref header_lines in
    let next () =
      match !lines with
      | [] -> fail "unexpected end of header"
      | l :: rest ->
        lines := rest;
        l
    in
    if not (String.equal (next ()) magic) then
      fail "not an xsum store (bad magic)";
    let offset, count =
      match words (next ()) with
      | [ "payload"; off; count ] -> (int_of off, int_of count)
      | _ -> fail "expected payload line"
    in
    if count < 1 then fail "empty payload";
    let payload =
      map_payload (Unix.descr_of_in_channel ic) ~offset ~count
    in
    if not (Float.equal payload.{0} 1.0) then
      fail "bad sentinel (corrupt or wrong-endian store)";
    (* The payload is mapped and its length checked against the file, so
       a grid whose size² cells could not fit in it is refused before
       [Grid.create] allocates its boundaries; the grid constructors
       reject the remaining bad geometries (size 0, more buckets than
       positions) with [Invalid_argument]. *)
    let grid_size w =
      let size = int_of w in
      if size > 0 && size > count / size then
        fail (Printf.sprintf "grid size %d does not fit the payload" size);
      size
    in
    let grid =
      match words (next ()) with
      | [ "grid"; "uniform"; size; max_pos ] -> (
        try Grid.create ~size:(grid_size size) ~max_pos:(int_of max_pos)
        with Invalid_argument msg -> fail msg)
      | "grid" :: "boundaries" :: size :: max_pos :: inner ->
        let size = grid_size size and max_pos = int_of max_pos in
        if not (Int.equal (List.length inner) (size - 1)) then
          fail "boundary count mismatch";
        let inner = List.map int_of inner in
        let boundaries = Array.of_list ((0 :: inner) @ [ max_pos + 1 ]) in
        (try Grid.of_boundaries boundaries
         with Invalid_argument msg -> fail msg)
      | _ -> fail "expected a grid line"
    in
    let cells = Grid.cells grid in
    let slice slot len =
      if slot < 0 || len < 0 || slot + len > count then
        fail "slot out of payload bounds";
      F64.sub payload ~pos:slot ~len
    in
    let s_population =
      match words (next ()) with
      | [ "population"; slot; total ] ->
        { h_total = float_of total; h_cells = slice (int_of slot) cells }
      | _ -> fail "expected population line"
    in
    let n_preds =
      match words (next ()) with
      | [ "predicates"; k ] -> int_of k
      | _ -> fail "expected predicates line"
    in
    let blocks = ref [] in
    for _ = 1 to n_preds do
      (* Predicate lines are the bulk of the header, so they get a
         cursor-based scanner instead of a split-and-match parse: the
         fixed fields tokenize without allocating, and the trailing
         predicate syntax (which may contain spaces) is whatever remains
         after the [syntax] keyword. *)
      let line = next () in
      let n = String.length line in
      let pos = ref 0 in
      let bad () = fail ("malformed predicate line: " ^ line) in
      let lit s =
        (* the literal token [s], space-terminated *)
        let m = String.length s in
        let rec eq j =
          j >= m || (Char.equal line.[!pos + j] s.[j] && eq (j + 1))
        in
        if !pos + m < n && eq 0 && Char.equal line.[!pos + m] ' ' then
          pos := !pos + m + 1
        else bad ()
      in
      let opt_none () =
        (* "none" in place of a numeric pair *)
        if
          !pos + 4 <= n
          && Char.equal line.[!pos] 'n'
          && Char.equal line.[!pos + 1] 'o'
          && Char.equal line.[!pos + 2] 'n'
          && Char.equal line.[!pos + 3] 'e'
          && (Int.equal (!pos + 4) n || Char.equal line.[!pos + 4] ' ')
        then begin
          pos := Int.min n (!pos + 5);
          true
        end
        else false
      in
      let parse_int () =
        let start = !pos in
        let v = ref 0 in
        while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
          v := (10 * !v) + (Char.code line.[!pos] - Char.code '0');
          incr pos
        done;
        if Int.equal !pos start then bad ();
        if !pos < n then
          if Char.equal line.[!pos] ' ' then incr pos else bad ();
        !v
      in
      let parse_float () =
        let start = !pos in
        while !pos < n && not (Char.equal line.[!pos] ' ') do
          incr pos
        done;
        let v = float_of (String.sub line start (!pos - start)) in
        if !pos < n then incr pos;
        v
      in
      lit "predicate";
      let b_no_overlap = Int.equal (parse_int ()) 1 in
      lit "hist";
      let hist_slot = parse_int () in
      let h_total = parse_float () in
      let b_hist = { h_total; h_cells = slice hist_slot cells } in
      lit "coverage";
      let b_cvg =
        if opt_none () then None
        else begin
          let entries = parse_int () in
          let slot = parse_int () in
          let offs = slice slot (cells + 1) in
          if not (Int.equal (int_of_float offs.{cells}) entries) then
            fail "coverage entry count mismatch";
          let data_slot = slot + cells + 1 in
          Some
            {
              c_entries = entries;
              c_offsets = offs;
              c_data = slice data_slot (2 * entries);
              c_populations = slice (data_slot + (2 * entries)) cells;
              c_total_cvg = slice (data_slot + (2 * entries) + cells) cells;
            }
        end
      in
      lit "level";
      let b_lvl =
        if opt_none () then None
        else
          let len = parse_int () in
          let slot = parse_int () in
          Some (slice slot len)
      in
      lit "syntax";
      if Int.equal !pos 0 || !pos > n then bad ();
      let b_syntax = String.sub line !pos (n - !pos) in
      blocks := { b_syntax; b_no_overlap; b_hist; b_cvg; b_lvl } :: !blocks
    done;
    Ok { s_grid = grid; s_population; s_blocks = List.rev !blocks }
  with
  | Bad_store msg -> Error msg
  | Sys_error msg -> Error msg
  | Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
