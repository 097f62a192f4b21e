(* Minimal aligned-table renderer for the benchmark reports. *)

let hr width = print_endline (String.make width '-')

(* Multi-line string literals carry indentation; collapse runs of spaces
   so wrapped titles print cleanly. *)
let collapse_spaces s =
  let b = Buffer.create (String.length s) in
  let prev_space = ref false in
  String.iter
    (fun ch ->
      if ch = ' ' then begin
        if not !prev_space then Buffer.add_char b ' ';
        prev_space := true
      end
      else begin
        prev_space := false;
        Buffer.add_char b ch
      end)
    s;
  Buffer.contents b

let section title =
  print_newline ();
  hr 78;
  Printf.printf "== %s\n" (collapse_spaces title);
  hr 78

let note fmt =
  Printf.ksprintf (fun s -> Printf.printf "   %s\n" (collapse_spaces s)) fmt

(* Render rows with per-column left alignment; the first row is the
   header. *)
let table rows =
  match rows with
  | [] -> ()
  | header :: body ->
    let cols = List.length header in
    let width c =
      List.fold_left (fun acc row ->
          match List.nth_opt row c with
          | Some cell -> Int.max acc (String.length cell)
          | None -> acc)
        0 rows
    in
    let widths = List.init cols width in
    let render row =
      let cells =
        List.mapi
          (fun c cell ->
            let w = List.nth widths c in
            cell ^ String.make (Int.max 0 (w - String.length cell)) ' ')
          row
      in
      print_endline ("  " ^ String.concat "  " cells)
    in
    render header;
    print_endline
      ("  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths));
    List.iter render body

let f0 v = Printf.sprintf "%.0f" v
let f1 v = Printf.sprintf "%.1f" v

let us v = Printf.sprintf "%.1fus" (v *. 1e6)

let ratio est real = if Float.equal real 0.0 then "n/a" else Printf.sprintf "%.2f" (est /. real)
