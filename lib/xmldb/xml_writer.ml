let escape ~quot s =
  let needs_escaping = ref false in
  String.iter
    (fun ch ->
      match ch with
      | '&' | '<' | '>' -> needs_escaping := true
      | '"' when quot -> needs_escaping := true
      | _ -> ())
    s;
  if not !needs_escaping then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun ch ->
        match ch with
        | '&' -> Buffer.add_string b "&amp;"
        | '<' -> Buffer.add_string b "&lt;"
        | '>' -> Buffer.add_string b "&gt;"
        | '"' when quot -> Buffer.add_string b "&quot;"
        | ch -> Buffer.add_char b ch)
      s;
    Buffer.contents b
  end

(* Indentation stops deepening at this depth, so an indented document is
   O(n) bytes however deep it nests.  Every generated data set is
   shallower, so their files are unaffected. *)
let max_indent_depth = 32

(* [spill buf] runs after each element; [to_file] empties the buffer
   into its channel there, so the document is never held whole. *)
let write ~indent ~spill buf e =
  let open Elem in
  (* The first element starts its own line: the declaration before it
     already ends in a newline. *)
  let started = ref false in
  let pad depth =
    if indent then begin
      if !started then Buffer.add_char buf '\n';
      started := true;
      for _ = 1 to Int.min depth max_indent_depth do
        Buffer.add_string buf "  "
      done
    end
  in
  let rec go depth e =
    pad depth;
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape ~quot:true v);
        Buffer.add_char buf '"')
      e.attrs;
    if e.text = "" && e.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      if e.text <> "" then Buffer.add_string buf (escape ~quot:false e.text);
      if e.children <> [] then begin
        List.iter (go (depth + 1)) e.children;
        pad depth
      end;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'
    end;
    spill buf
  in
  go 0 e

let declaration = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"

let to_string ?(indent = true) e =
  let b = Buffer.create 4096 in
  Buffer.add_string b declaration;
  write ~indent ~spill:ignore b e;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_file ?(indent = true) path e =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let b = Buffer.create 4096 in
      Buffer.add_string b declaration;
      write ~indent b e ~spill:(fun b ->
          Buffer.output_buffer oc b;
          Buffer.clear b);
      output_char oc '\n';
      (* flush inside the body so write errors (ENOSPC, ...) surface as
         the primary exception, not from the finally *)
      flush oc)
