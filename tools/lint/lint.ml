(* AST linter for the project's estimator invariants (see lint.mli).

   The implementation is deliberately syntactic: it parses with the
   compiler's own parser (compiler-libs [Parse]) and pattern-matches the
   Parsetree — no typing pass.  Rules are therefore phrased so that a
   parse-level decision is sound for this codebase: [poly-eq] exempts
   comparisons against literal constants (where structural equality is
   idiomatic and cheap), and [float-eq] keys off float literals. *)

type finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let rules =
  [
    ("poly-compare",
     "bare compare/min/max or Hashtbl.hash: use a monomorphic comparator \
      (Int.compare, String.compare, ...)");
    ("poly-eq",
     "polymorphic =/<> on non-constant operands: use Int.equal, \
      String.equal, List.equal, ... or pattern matching");
    ("float-eq", "=/<> against a float literal: use Float.equal or a tolerance");
    ("partial", "partial Stdlib call (List.hd/List.tl/Option.get)");
    ("catch-all", "catch-all exception handler: name the exceptions you expect");
    ("obj", "use of Obj defeats the type system");
    ("domains",
     "Domain/Mutex/Condition/Atomic outside lib/parallel/: route \
      concurrency through the pool library");
    ("marshal",
     "Marshal outside the summary store (store.ml): use the .xsum \
      container or a validating text reader");
    ("mutable-global",
     "top-level ref/Hashtbl.create/Array.make/... binding: global mutable \
      state voids the parallel bit-identity argument; pass state \
      explicitly or allowlist a deliberate memo table");
    ("missing-mli", "every module under lib/ must have an interface");
    ("parse-error", "file does not parse");
  ]

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d %s %s" f.file f.line f.rule f.message

(* Machine-readable findings: one JSON array of {file, line, rule,
   message} objects, shared verbatim by tools/lint and tools/analyze so
   CI consumes one format. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pp_finding_json ppf f =
  Format.fprintf ppf
    {|{ "file": "%s", "line": %d, "rule": "%s", "message": "%s" }|}
    (json_escape f.file) f.line (json_escape f.rule) (json_escape f.message)

let pp_findings_json ppf findings =
  match findings with
  | [] -> Format.pp_print_string ppf "[]"
  | findings ->
    Format.fprintf ppf "[@\n  %a@\n]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@\n  ")
         pp_finding_json)
      findings

(* --- Suppression comments --------------------------------------------- *)

(* Scan the raw source for comments, tracking nesting and string literals
   (both in code and inside comments, as the real lexer does), and collect
   [(line, rule)] pairs from every "lint: allow <rule> ..." comment. *)
let allow_lines src =
  let n = String.length src in
  let line = ref 1 in
  let i = ref 0 in
  let allows = ref [] in
  let record_comment start_line text =
    (* accept "lint: allow r1 r2" anywhere in the comment; rule names are
       the kebab-case words that follow *)
    let words =
      String.split_on_char ' '
        (String.map (function '\t' | '\n' | ',' -> ' ' | c -> c) text)
      |> List.filter (fun w -> not (String.equal w ""))
    in
    let rule_like w =
      String.length w > 0
      && String.for_all (fun c -> Char.equal c '-' || (c >= 'a' && c <= 'z')) w
    in
    let rec scan = function
      | "lint:" :: "allow" :: rest ->
        List.iter
          (fun r -> allows := (start_line, r) :: !allows)
          (List.filter rule_like rest)
      | _ :: rest -> scan rest
      | [] -> ()
    in
    scan words
  in
  let bump c = if Char.equal c '\n' then incr line in
  let rec skip_string k =
    (* k points after the opening quote; returns index after closing quote *)
    if k >= n then k
    else
      match src.[k] with
      | '\\' when k + 1 < n ->
        bump src.[k + 1];
        skip_string (k + 2)
      | '"' -> k + 1
      | c ->
        bump c;
        skip_string (k + 1)
  in
  while !i < n do
    (match src.[!i] with
    | '"' -> i := skip_string (!i + 1)
    | '(' when !i + 1 < n && Char.equal src.[!i + 1] '*' ->
      (* comment: record its text through nesting *)
      let start_line = !line in
      let buf = Buffer.create 64 in
      let depth = ref 1 in
      let k = ref (!i + 2) in
      while !depth > 0 && !k < n do
        (match src.[!k] with
        | '(' when !k + 1 < n && Char.equal src.[!k + 1] '*' ->
          incr depth;
          incr k
        | '*' when !k + 1 < n && Char.equal src.[!k + 1] ')' ->
          decr depth;
          incr k
        | '"' ->
          let stop = skip_string (!k + 1) in
          Buffer.add_substring buf src !k (stop - !k - 1);
          k := stop - 1
        | c ->
          bump c;
          Buffer.add_char buf c);
        incr k
      done;
      record_comment start_line (Buffer.contents buf);
      i := !k
    | c ->
      bump c;
      incr i)
  done;
  !allows

let suppressed allows rule line =
  List.exists
    (fun (l, r) -> String.equal r rule && (Int.equal l line || Int.equal (l + 1) line))
    allows

(* --- AST walk ---------------------------------------------------------- *)

(* Longident path as "A.B.c"; Lapply never names a banned value. *)
let rec path_string = function
  | Longident.Lident s -> s
  | Longident.Ldot (p, s) -> path_string p ^ "." ^ s
  | Longident.Lapply (_, p) -> path_string p

let rec path_root = function
  | Longident.Lident s -> s
  | Longident.Ldot (p, _) -> path_root p
  | Longident.Lapply (p, _) -> path_root p

let poly_fns =
  [ "compare"; "min"; "max"; "Stdlib.compare"; "Stdlib.min"; "Stdlib.max";
    "Hashtbl.hash"; "Stdlib.Hashtbl.hash" ]

let poly_eq_fns = [ "="; "<>"; "Stdlib.(=)"; "Stdlib.(<>)" ]

let partial_fns =
  [ "List.hd"; "List.tl"; "Option.get"; "Stdlib.List.hd"; "Stdlib.List.tl";
    "Stdlib.Option.get" ]

let mem_string x l = List.exists (String.equal x) l

(* Concurrency primitives are confined to lib/parallel/ — everywhere else
   bit-identity of results is argued from strictly sequential, deterministic
   code, and a stray Domain.spawn or shared Atomic would silently void that
   argument.  Matched on the qualifying module of the path (optionally
   through Stdlib), so [Domain.spawn], [Stdlib.Atomic.make], [Mutex.lock]
   all fire while a local [module Pool = ...] alias does not hide one. *)
let concurrency_modules = [ "Domain"; "Mutex"; "Condition"; "Atomic" ]

let is_concurrency_path txt =
  let rec segments = function
    | Longident.Lident s -> [ s ]
    | Longident.Ldot (p, s) -> segments p @ [ s ]
    | Longident.Lapply (p, _) -> segments p
  in
  match segments txt with
  | "Stdlib" :: m :: _ :: _ -> mem_string m concurrency_modules
  | m :: _ :: _ -> mem_string m concurrency_modules
  | _ -> false

let in_parallel_lib file =
  let rec scan = function
    | "lib" :: "parallel" :: _ -> true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan (String.split_on_char '/' file)

(* Marshal is confined to the summary store module: everywhere else,
   summaries persist through the .xsum container and other input (update
   lines, patterns, predicate syntax) through text readers, all of which
   validate what they read.  A stray [Marshal.from_channel] elsewhere
   would reintroduce crash-on-corrupt-file behavior. *)
let is_marshal_path txt =
  let rec segments = function
    | Longident.Lident s -> [ s ]
    | Longident.Ldot (p, s) -> segments p @ [ s ]
    | Longident.Lapply (p, _) -> segments p
  in
  match segments txt with
  | "Stdlib" :: "Marshal" :: _ :: _ -> true
  | "Marshal" :: _ :: _ -> true
  | _ -> false

let in_store_module file =
  mem_string (Filename.basename file) [ "store.ml"; "store.mli" ]

(* Is the expression a literal-constant operand that exempts =/<> from
   [poly-eq]?  Constants, nullary constructors ([], None, true, ...) and
   nullary polymorphic variants qualify. *)
let is_constant_operand e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant _ -> true
  | Parsetree.Pexp_construct (_, None) -> true
  | Parsetree.Pexp_variant (_, None) -> true
  | _ -> false

let is_float_literal e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_float _) -> true
  | _ -> false

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* --- mutable-global ---------------------------------------------------- *)

(* Top-level bindings whose right-hand side constructs mutable state.
   Syntactic, like every rule here: the creation functions below are the
   decidable cases — a record literal's mutability needs types (the
   typed analyzer's domain-escape pass covers those when they cross a
   domain), and array {e literals} are exempted as the idiomatic
   constant lookup table (datagen's word pools).  Walks module bindings
   and functor bodies so state hidden in a submodule still fires. *)
let mutable_ctor_fns =
  [ "ref"; "Hashtbl.create"; "Array.make"; "Array.init"; "Array.create_float";
    "Bytes.create"; "Bytes.make"; "Bytes.of_string"; "Buffer.create";
    "Atomic.make"; "Queue.create"; "Stack.create" ]

let strip_stdlib p =
  let prefix = "Stdlib." in
  let n = String.length prefix in
  if String.length p > n && String.equal (String.sub p 0 n) prefix then
    String.sub p n (String.length p - n)
  else p

let rec top_mutable_ctor e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) -> top_mutable_ctor e
  | Parsetree.Pexp_apply
      ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _ :: _) ->
    let p = strip_stdlib (path_string txt) in
    if mem_string p mutable_ctor_fns then Some p else None
  | _ -> None

let mutable_globals ~report str =
  let check_bindings vbs =
    List.iter
      (fun vb ->
        match top_mutable_ctor vb.Parsetree.pvb_expr with
        | Some p ->
          report vb.Parsetree.pvb_loc "mutable-global"
            (Printf.sprintf
               "top-level `%s' creates global mutable state (pass it \
                explicitly, or allowlist a deliberate memo table)"
               p)
        | None -> ())
      vbs
  in
  let rec walk_module me =
    match me.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure s -> walk s
    | Parsetree.Pmod_constraint (me, _) -> walk_module me
    | Parsetree.Pmod_functor (_, me) -> walk_module me
    | _ -> ()
  and walk str =
    List.iter
      (fun item ->
        match item.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) -> check_bindings vbs
        | Parsetree.Pstr_module { pmb_expr; _ } -> walk_module pmb_expr
        | Parsetree.Pstr_recmodule mbs ->
          List.iter (fun mb -> walk_module mb.Parsetree.pmb_expr) mbs
        | Parsetree.Pstr_include { pincl_mod; _ } -> walk_module pincl_mod
        | _ -> ())
      str
  in
  walk str

let findings_of_ast ~file ~allows ast_iter_input =
  let out = ref [] in
  let report loc rule message =
    let line = line_of loc in
    if not (suppressed allows rule line) then
      out := { file; line; rule; message } :: !out
  in
  (* =/<> idents consumed by a binary application we already judged. *)
  let handled : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let loc_key loc =
    (loc.Location.loc_start.Lexing.pos_cnum, loc.Location.loc_end.Lexing.pos_cnum)
  in
  let check_ident txt loc =
    let path = path_string txt in
    if mem_string path poly_fns then
      report loc "poly-compare"
        (Printf.sprintf "polymorphic `%s' (use a monomorphic comparator)" path)
    else if mem_string path poly_eq_fns && not (Hashtbl.mem handled (loc_key loc))
    then
      report loc "poly-eq"
        (Printf.sprintf "polymorphic `(%s)' used as a function value" path)
    else if mem_string path partial_fns then
      report loc "partial"
        (Printf.sprintf "partial function `%s' (match on the shape instead)" path)
    else if String.equal (path_root txt) "Obj" then
      report loc "obj" (Printf.sprintf "`%s'" path)
    else if is_concurrency_path txt && not (in_parallel_lib file) then
      report loc "domains"
        (Printf.sprintf
           "`%s': domain/concurrency primitives are confined to lib/parallel/"
           path)
    else if is_marshal_path txt && not (in_store_module file) then
      report loc "marshal"
        (Printf.sprintf
           "`%s': Marshal is confined to the summary store (store.ml)" path)
  in
  let check_eq op fn_loc whole_loc lhs rhs =
    Hashtbl.replace handled (loc_key fn_loc) ();
    if is_float_literal lhs || is_float_literal rhs then
      report whole_loc "float-eq"
        (Printf.sprintf "`%s' against a float literal (use Float.equal)" op)
    else if not (is_constant_operand lhs || is_constant_operand rhs) then
      report whole_loc "poly-eq"
        (Printf.sprintf
           "polymorphic `%s' on non-constant operands (use Int.equal, \
            String.equal, ...)"
           op)
  in
  let open Ast_iterator in
  let expr self e =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply
        ( { pexp_desc = Parsetree.Pexp_ident { txt = Longident.Lident op; loc };
            _ },
          [ (Asttypes.Nolabel, lhs); (Asttypes.Nolabel, rhs) ] )
      when mem_string op [ "="; "<>" ] ->
      check_eq op loc e.Parsetree.pexp_loc lhs rhs
    | Parsetree.Pexp_ident { txt; loc } -> check_ident txt loc
    | Parsetree.Pexp_try (_, cases) ->
      List.iter
        (fun c ->
          match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
          | Parsetree.Ppat_any ->
            report c.Parsetree.pc_lhs.Parsetree.ppat_loc "catch-all"
              "`try ... with _ ->' swallows every exception"
          | _ -> ())
        cases
    | Parsetree.Pexp_match (_, cases) ->
      List.iter
        (fun c ->
          match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
          | Parsetree.Ppat_exception
              { ppat_desc = Parsetree.Ppat_any; ppat_loc; _ } ->
            report ppat_loc "catch-all"
              "`exception _ ->' swallows every exception"
          | _ -> ())
        cases
    | _ -> ());
    default_iterator.expr self e
  in
  let iter = { default_iterator with expr } in
  (match ast_iter_input with
  | `Structure str ->
    iter.structure iter str;
    mutable_globals ~report str
  | `Signature sg -> iter.signature iter sg);
  !out

(* --- Entry points ------------------------------------------------------ *)

let lint_source ~file src =
  let allows = allow_lines src in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  let parsed =
    try
      if Filename.check_suffix file ".mli" then
        Ok (`Signature (Parse.interface lexbuf))
      else Ok (`Structure (Parse.implementation lexbuf))
    with exn ->
      let line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum in
      let msg =
        match exn with
        | Syntaxerr.Error _ -> "syntax error"
        | exn -> Printexc.to_string exn
      in
      Error { file; line = Int.max line 1; rule = "parse-error"; message = msg }
  in
  match parsed with
  | Error f -> [ f ]
  | Ok ast ->
    findings_of_ast ~file ~allows ast
    |> List.sort (fun a b -> Int.compare a.line b.line)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path =
  match read_file path with
  | src -> lint_source ~file:path src
  | exception Sys_error msg ->
    [ { file = path; line = 1; rule = "parse-error"; message = msg } ]

(* [.ml] files under a path segment named "lib" need a sibling [.mli]. *)
let under_lib path =
  List.exists (String.equal "lib") (String.split_on_char '/' path)

let missing_mli path =
  if
    Filename.check_suffix path ".ml"
    && under_lib path
    && not (Sys.file_exists (path ^ "i"))
  then
    [ { file = path; line = 1; rule = "missing-mli";
        message = "module has no interface file" } ]
  else []

let rec collect path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if String.length entry > 0 && Char.equal entry.[0] '.' then acc
        else collect (Filename.concat path entry) acc)
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

let lint_paths paths =
  let files = List.fold_left (fun acc p -> collect p acc) [] paths in
  let files = List.sort String.compare files in
  List.concat_map (fun f -> missing_mli f @ lint_file f) files
