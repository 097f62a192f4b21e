(* Typedtree analyzer for the project's concurrency, resource and
   library-surface invariants (see analyze.mli).

   Where the Parsetree linter (tools/lint) is deliberately syntactic,
   this tool is typed: it reads the [.cmt]/[.cmti] files dune already
   emits ([-bin-annot] is always on) and walks the {!Typedtree}, so it
   can ask questions the linter cannot — "what does this closure
   capture, and is the capture's type mutable?", "is this channel
   released on the exception path?", "does anything outside this module
   name this export?".  It shares the linter's finding record, its
   [(* lint: allow <rule> *)] suppression syntax and its output formats,
   so both tools read as one static-analysis surface. *)

module Lint = Xmlest_lint.Lint

type finding = Lint.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let rules =
  [
    ("domain-escape",
     "closure crossing Domain.spawn/Pool.run captures shared mutable \
      state: hand tasks chunk-local state or allowlist read-only shares");
    ("resource-leak",
     "channel/temp-file/fd acquisition not released via Fun.protect \
      ~finally and not returned to a documented owner");
    ("unused-export",
     "a val of a lib/ interface that no other unit names, or that only \
      test/ names: delete it, hide it, move it to test/util/ or allowlist \
      it with a reason");
    ("cmt-error", "a .cmt file could not be read");
  ]

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum
let file_of loc = loc.Location.loc_start.Lexing.pos_fname

(* --- Paths ------------------------------------------------------------- *)

(* Path as a segment list, ["Stdlib"; "Hashtbl"; "t"].  Functor argument
   paths ([Papply]) never name the value or type itself; [Pextra_ty]
   wraps the interesting path. *)
let rec path_segments = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_segments p @ [ s ]
  | Path.Papply (p, _) -> path_segments p
  | Path.Pextra_ty (p, _) -> path_segments p

(* Dune name-mangles wrapped library modules ("Xmlest_core__Summary"):
   the part after the last "__" is the module as the source spells it. *)
let demangle s =
  let n = String.length s in
  let rec last_sep i acc =
    if i + 1 >= n then acc
    else if Char.equal s.[i] '_' && Char.equal s.[i + 1] '_' then
      last_sep (i + 2) (Some (i + 2))
    else last_sep (i + 1) acc
  in
  match last_sep 0 None with
  | Some k when k < n -> String.sub s k (n - k)
  | Some _ | None -> s

let mem_string x l = List.exists (String.equal x) l

let in_parallel_lib file =
  let rec scan = function
    | "lib" :: "parallel" :: _ -> true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan (String.split_on_char '/' file)

(* --- Mutability of types ----------------------------------------------- *)

(* The repo-wide declaration table: one entry per type declaration found
   in any analyzed [.cmt], keyed "<Module>.<type>" with [Module] the
   innermost enclosing module.  [d_mutable] is direct mutability (a
   record or inline record with a [mutable] field); [d_types] are the
   component types (manifest, record fields, constructor arguments)
   through which mutability propagates transitively. *)
type decl = {
  d_mod : string;
  d_mutable : bool;
  d_types : Types.type_expr list;
}

type decl_table = (string, decl) Hashtbl.t

let decl_of_types_declaration ~modname (td : Types.type_declaration) =
  let open Types in
  let label_types lds = List.map (fun ld -> ld.ld_type) lds in
  let label_mutable lds =
    List.exists
      (fun ld -> match ld.ld_mutable with Mutable -> true | Immutable -> false)
      lds
  in
  let direct, components =
    match td.type_kind with
    | Type_record (lds, _) -> (label_mutable lds, label_types lds)
    | Type_variant (cds, _) ->
      List.fold_left
        (fun (m, tys) cd ->
          match cd.cd_args with
          | Cstr_tuple args -> (m, args @ tys)
          | Cstr_record lds -> (m || label_mutable lds, label_types lds @ tys))
        (false, []) cds
    | Type_abstract | Type_open -> (false, [])
  in
  let components =
    match td.type_manifest with
    | Some ty -> ty :: components
    | None -> components
  in
  { d_mod = modname; d_mutable = direct; d_types = components }

let collect_decls (table : decl_table) ~modname str =
  let stack = ref [ modname ] in
  let innermost () = match !stack with m :: _ -> m | [] -> modname in
  let open Tast_iterator in
  let module_binding self mb =
    let name =
      match mb.Typedtree.mb_id with Some id -> Ident.name id | None -> "_"
    in
    stack := name :: !stack;
    default_iterator.module_binding self mb;
    stack := (match !stack with _ :: rest -> rest | [] -> [])
  in
  let type_declaration self td =
    let key = innermost () ^ "." ^ td.Typedtree.typ_name.Location.txt in
    if not (Hashtbl.mem table key) then
      Hashtbl.add table key
        (decl_of_types_declaration ~modname:(innermost ()) td.Typedtree.typ_type);
    default_iterator.type_declaration self td
  in
  let iter = { default_iterator with module_binding; type_declaration } in
  iter.structure iter str

(* Mutable-by-construction type constructors from the stdlib.  [bytes],
   [array] and [floatarray] are predefined (bare idents); the rest live
   in Stdlib modules.  Functor instances (Hashtbl.Make(..).t) keep the
   defining module in their path, so segment membership catches them. *)
let builtin_mutable segs =
  let demangled = List.map demangle segs in
  let has m = mem_string m demangled in
  let rec last = function
    | [ x ] -> x
    | _ :: rest -> last rest
    | [] -> ""
  in
  let last_seg = last segs in
  if has "Bigarray" then Some "a Bigarray"
  else
    match demangled with
    | [ "array" ] -> Some "an array"
    | [ "bytes" ] -> Some "bytes"
    | [ "floatarray" ] -> Some "a floatarray"
    | _ ->
      if String.equal last_seg "ref" then Some "a ref"
      else if String.equal last_seg "in_channel"
              || String.equal last_seg "out_channel"
      then Some "an I/O channel"
      else if String.equal last_seg "t" then
        (match
           List.find_opt has
             [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Atomic"; "Mutex";
               "Condition"; "Bytes" ]
         with
        | Some m -> Some (m ^ ".t")
        | None -> None)
      else None

let decl_key ~selfmod segs =
  match List.rev segs with
  | name :: [] -> selfmod ^ "." ^ name
  | name :: m :: _ -> demangle m ^ "." ^ name
  | [] -> selfmod ^ "."

let rec first_some f = function
  | [] -> None
  | x :: rest -> (
    match f x with Some _ as s -> s | None -> first_some f rest)

(* Is [ty] transitively mutable?  Follows head constructors through the
   declaration table (manifests, record fields, constructor arguments)
   and through type arguments of immutable containers (a [int ref list]
   is shared mutable state even though [list] is not), with a depth
   bound and a cycle guard on declaration keys.  Returns a short reason
   ("a ref", "Summary.t has mutable fields", ...). *)
let rec mutable_type table ~selfmod ~seen depth ty =
  if depth <= 0 then None
  else
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) -> (
      let segs = path_segments p in
      match builtin_mutable segs with
      | Some reason -> Some reason
      | None -> (
        let key = decl_key ~selfmod segs in
        let from_decl =
          if mem_string key seen then None
          else
            match Hashtbl.find_opt table key with
            | None -> None
            | Some d ->
              if d.d_mutable then Some (key ^ " has mutable fields")
              else
                first_some
                  (mutable_type table ~selfmod:d.d_mod ~seen:(key :: seen)
                     (depth - 1))
                  d.d_types
        in
        match from_decl with
        | Some _ as s -> s
        | None ->
          first_some (mutable_type table ~selfmod ~seen (depth - 1)) args))
    | Types.Ttuple tys ->
      first_some (mutable_type table ~selfmod ~seen (depth - 1)) tys
    | Types.Tpoly (t, _) -> mutable_type table ~selfmod ~seen (depth - 1) t
    | _ -> None

let mutable_type table ~selfmod ty =
  mutable_type table ~selfmod ~seen:[] 12 ty

(* --- Expression helpers ------------------------------------------------ *)

let unique id = Ident.unique_name id

let pat_var_names : type k. k Typedtree.general_pattern -> string list =
 fun p -> List.map unique (Typedtree.pat_bound_idents p)

(* Free variables of [e]: idents used with a [Pident] path whose binder
   is not inside [e].  Ident stamps are unique per binder, so "used
   minus bound-within" is exact.  Returns the first use of each, with
   the type at that use, sorted by name for deterministic reports. *)
let free_uses e =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let used : (string, string * int * Types.type_expr) Hashtbl.t =
    Hashtbl.create 32
  in
  let open Tast_iterator in
  let pat : type k. iterator -> k Typedtree.general_pattern -> unit =
   fun self p ->
    List.iter
      (fun id -> Hashtbl.replace bound (unique id) ())
      (Typedtree.pat_bound_idents p);
    default_iterator.pat self p
  in
  let expr self e =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) ->
      let key = unique id in
      if not (Hashtbl.mem used key) then
        Hashtbl.add used key
          (Ident.name id, line_of e.Typedtree.exp_loc, e.Typedtree.exp_type)
    | Typedtree.Texp_function { param; _ } ->
      Hashtbl.replace bound (unique param) ()
    | Typedtree.Texp_for (id, _, _, _, _, _) ->
      Hashtbl.replace bound (unique id) ()
    | Typedtree.Texp_letop { param; _ } ->
      Hashtbl.replace bound (unique param) ()
    | _ -> ());
    default_iterator.expr self e
  in
  let iter = { default_iterator with expr; pat } in
  iter.expr iter e;
  Hashtbl.fold
    (fun key use acc -> if Hashtbl.mem bound key then acc else use :: acc)
    used []
  |> List.sort (fun (a, la, _) (b, lb, _) ->
         match String.compare a b with 0 -> Int.compare la lb | c -> c)

(* Does [e] mention one of [vars] (by unique name)? *)
exception Found

let mentions vars e =
  let open Tast_iterator in
  let expr self e =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) ->
      if mem_string (unique id) vars then raise Found
    | _ -> ());
    default_iterator.expr self e
  in
  let iter = { default_iterator with expr } in
  match iter.expr iter e with () -> false | exception Found -> true

(* --- Pass 1: domain-escape --------------------------------------------- *)

(* A spawn point is an application of [Domain.spawn] or of [run] from a
   module named [Pool] (the project's lib/parallel fan-out).  Matching
   on the demangled qualifying module keeps the dune-mangled
   [Xmlest_parallel__Pool.run] and a test fixture's plain [Pool.run] on
   the same rule. *)
let spawn_target path =
  match List.rev (path_segments path) with
  | "spawn" :: m :: _ when String.equal (demangle m) "Domain" ->
    Some "Domain.spawn"
  | "run" :: m :: _ when String.equal (demangle m) "Pool" -> Some "Pool.run"
  | _ -> None

(* Local function definitions, so that [Domain.spawn worker] can be
   analyzed through [worker]'s body: one level of indirection, which is
   how the pool itself spawns. *)
let collect_defs str =
  let defs : (string, Typedtree.expression) Hashtbl.t = Hashtbl.create 64 in
  let open Tast_iterator in
  let value_binding self vb =
    (match vb.Typedtree.vb_pat.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) ->
      Hashtbl.replace defs (unique id) vb.Typedtree.vb_expr
    | _ -> ());
    default_iterator.value_binding self vb
  in
  let iter = { default_iterator with value_binding } in
  iter.structure iter str;
  defs

(* One-line rendering: Format may wrap long types over several lines,
   and findings are line-oriented. *)
let type_to_string ty =
  let s = Format.asprintf "%a" Printtyp.type_expr ty in
  let b = Buffer.create (String.length s) in
  let last_blank = ref false in
  String.iter
    (fun c ->
      let c = match c with '\n' | '\t' -> ' ' | c -> c in
      if Char.equal c ' ' then begin
        if not !last_blank then Buffer.add_char b ' ';
        last_blank := true
      end
      else begin
        Buffer.add_char b c;
        last_blank := false
      end)
    s;
  Buffer.contents b

let domain_escape_pass ~table ~selfmod ~defs ~report str =
  let check_task ~target ~app_loc ~via task =
    List.iter
      (fun (name, use_line, ty) ->
        match mutable_type table ~selfmod ty with
        | None -> ()
        | Some reason ->
          if
            String.equal reason "Atomic.t" && in_parallel_lib (file_of app_loc)
          then ()
          else
            report app_loc "domain-escape"
              (Printf.sprintf
                 "task passed to %s captures `%s'%s (line %d): %s is shared \
                  mutable state (%s); make it chunk-local or allowlist a \
                  read-only share"
                 target name via use_line (type_to_string ty) reason))
      (free_uses task)
  in
  let open Tast_iterator in
  let expr self e =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply
        ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) -> (
      match spawn_target p with
      | None -> ()
      | Some target ->
        List.iter
          (fun (label, arg) ->
            match (label, arg) with
            | Asttypes.Nolabel, Some task -> (
              match task.Typedtree.exp_desc with
              | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
                match Hashtbl.find_opt defs (unique id) with
                | Some body ->
                  check_task ~target ~app_loc:e.Typedtree.exp_loc
                    ~via:(Printf.sprintf " (via `%s')" (Ident.name id))
                    body
                | None -> ())
              | _ ->
                check_task ~target ~app_loc:e.Typedtree.exp_loc ~via:"" task)
            | _ -> ())
          args)
    | _ -> ());
    default_iterator.expr self e
  in
  let iter = { default_iterator with expr } in
  iter.structure iter str

(* --- Pass 2: resource lifecycle ---------------------------------------- *)

(* Acquisition functions whose result owns an OS resource (or, for
   [Filename.temp_file], a file on disk) that exceptions must not
   leak. *)
let acquisition path =
  let segs = path_segments path in
  let stripped =
    match segs with "Stdlib" :: rest -> rest | rest -> rest
  in
  match stripped with
  | [ f ]
    when mem_string f
           [ "open_in"; "open_in_bin"; "open_in_gen"; "open_out";
             "open_out_bin"; "open_out_gen" ] ->
    Some f
  | [ "Filename"; "temp_file" ] -> Some "Filename.temp_file"
  | [ "Filename"; "open_temp_file" ] -> Some "Filename.open_temp_file"
  | [ m; "openfile" ]
    when mem_string (demangle m) [ "Unix"; "UnixLabels" ] ->
    Some "Unix.openfile"
  | _ -> None

let is_acquisition e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply
      ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _ :: _) ->
    acquisition p
  | _ -> None

let is_fun_protect path =
  match List.rev (path_segments path) with
  | "protect" :: m :: _ -> String.equal (demangle m) "Fun"
  | _ -> false

(* Is some [Fun.protect ~finally:f] in [scope] such that [f] mentions
   one of [vars]?  The [~finally] argument alone decides: the repo's
   [Fun.protect ~finally @@ fun () -> ...] idiom partially applies
   protect, so the protected thunk may not be an argument of the same
   application node. *)
let protect_releases vars scope =
  let open Tast_iterator in
  let expr self e =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply
        ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
      when is_fun_protect p ->
      List.iter
        (fun (label, arg) ->
          match (label, arg) with
          | Asttypes.Labelled "finally", Some fin ->
            if mentions vars fin then raise Found
          | _ -> ())
        args
    | _ -> ());
    default_iterator.expr self e
  in
  let iter = { default_iterator with expr } in
  match iter.expr iter scope with () -> false | exception Found -> true

(* Ownership return: the scope's tail expression is the acquired value
   itself, or a constructor/tuple/record carrying it directly — the
   caller becomes the owner (documented in the .mli), e.g. an [Ok]
   result carrying the channel. *)
let rec returns_ownership vars e =
  let is_var x =
    match x.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) ->
      mem_string (unique id) vars
    | _ -> false
  in
  if is_var e then true
  else
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, _, body)
    | Typedtree.Texp_sequence (_, body)
    | Typedtree.Texp_open (_, body) ->
      returns_ownership vars body
    | Typedtree.Texp_ifthenelse (_, t, f) ->
      returns_ownership vars t
      || (match f with Some f -> returns_ownership vars f | None -> false)
    | Typedtree.Texp_match (_, cases, _) ->
      List.exists (fun c -> returns_ownership vars c.Typedtree.c_rhs) cases
    | Typedtree.Texp_try (body, cases) ->
      returns_ownership vars body
      || List.exists (fun c -> returns_ownership vars c.Typedtree.c_rhs) cases
    | Typedtree.Texp_construct (_, _, args) | Typedtree.Texp_tuple args ->
      List.exists is_var args
    | Typedtree.Texp_variant (_, Some arg) -> is_var arg
    | Typedtree.Texp_record { fields; _ } ->
      Array.exists
        (fun (_, def) ->
          match def with
          | Typedtree.Overridden (_, e) -> is_var e
          | Typedtree.Kept _ -> false)
        fields
    | _ -> false

let resource_pass ~report str =
  (* Acquisition nodes already judged through an enclosing binding (or
     blessed as an ownership-returning function body), so the generic
     bare-acquisition case does not re-report them. *)
  let handled : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let loc_key loc =
    (loc.Location.loc_start.Lexing.pos_cnum, loc.Location.loc_end.Lexing.pos_cnum)
  in
  let mark e = Hashtbl.replace handled (loc_key e.Typedtree.exp_loc) () in
  let marked e = Hashtbl.mem handled (loc_key e.Typedtree.exp_loc) in
  (* Unique names are "name_stamp"; show just the name. *)
  let base v =
    match String.rindex_opt v '_' with
    | Some i
      when i > 0
           && i + 1 < String.length v
           && String.for_all
                (fun c -> c >= '0' && c <= '9')
                (String.sub v (i + 1) (String.length v - i - 1)) ->
      String.sub v 0 i
    | Some _ | None -> v
  in
  let names vars =
    match vars with
    | [] -> "_"
    | _ -> String.concat ", " (List.map (fun v -> "`" ^ base v ^ "'") vars)
  in
  let check_binding ~acq ~acq_expr vars scope =
    mark acq_expr;
    if vars = [] then
      report acq_expr.Typedtree.exp_loc "resource-leak"
        (Printf.sprintf
           "`%s' result is dropped by a wildcard binding: it can never be \
            released"
           acq)
    else if not (protect_releases vars scope || returns_ownership vars scope)
    then
      report acq_expr.Typedtree.exp_loc "resource-leak"
        (Printf.sprintf
           "`%s' binds %s but no Fun.protect ~finally releases it on the \
            exception path (and it is not returned to a documented owner)"
           acq (names vars))
  in
  let open Tast_iterator in
  let expr self e =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          match is_acquisition vb.Typedtree.vb_expr with
          | Some acq ->
            check_binding ~acq ~acq_expr:vb.Typedtree.vb_expr
              (pat_var_names vb.Typedtree.vb_pat)
              body
          | None -> ())
        vbs
    | Typedtree.Texp_match (scrut, cases, _) -> (
      match is_acquisition scrut with
      | Some acq ->
        mark scrut;
        List.iter
          (fun c ->
            match Typedtree.split_pattern c.Typedtree.c_lhs with
            | Some vpat, _ ->
              check_binding ~acq ~acq_expr:scrut (pat_var_names vpat)
                c.Typedtree.c_rhs
            | None, _ -> ())
          cases
      | None -> ())
    | Typedtree.Texp_function { cases; _ } ->
      (* [let owner path = open_out path]: the acquisition is the whole
         function body — ownership passes to the caller by construction. *)
      List.iter
        (fun c ->
          match is_acquisition c.Typedtree.c_rhs with
          | Some _ -> mark c.Typedtree.c_rhs
          | None -> ())
        cases
    | _ -> (
      match is_acquisition e with
      | Some acq ->
        if not (marked e) then begin
          mark e;
          report e.Typedtree.exp_loc "resource-leak"
            (Printf.sprintf
               "`%s' result is consumed inline: bind it and release it via \
                Fun.protect ~finally"
               acq)
        end
      | None -> ()));
    default_iterator.expr self e
  in
  let structure_item self item =
    (match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match is_acquisition vb.Typedtree.vb_expr with
          | Some acq ->
            mark vb.Typedtree.vb_expr;
            report vb.Typedtree.vb_expr.Typedtree.exp_loc "resource-leak"
              (Printf.sprintf
                 "module-level `%s' is never released: allowlist if this \
                  lifetime is intentional"
                 acq)
          | None -> ())
        vbs
    | _ -> ());
    default_iterator.structure_item self item
  in
  let iter = { default_iterator with expr; structure_item } in
  iter.structure iter str

(* --- Pass 3: unused-export ---------------------------------------------- *)

(* A unit's part in the program, from the last of these directory names
   on its source path: [lib/] exports values; [bin/], [bench/], [tools/]
   and [examples/] call them; [test/] calls them for tests only.  A unit
   under none of them (a flat fixture) counts as a program. *)
type part = Library | Program | Example | Test

let part_of file =
  List.fold_left
    (fun part seg ->
      match seg with
      | "lib" -> Library
      | "bin" | "bench" | "tools" -> Program
      | "examples" -> Example
      | "test" -> Test
      | _ -> part)
    Program
    (String.split_on_char '/' file)

(* A module or value path as segments headed by a compilation unit: a
   local module alias ([module X = M], [let module X = M]) is replaced by
   what it abbreviates; any other local head is no cross-unit reference. *)
let rec unit_path locals = function
  | Path.Pident id when Ident.persistent id -> Some [ Ident.name id ]
  | Path.Pident id -> Hashtbl.find_opt locals (unique id)
  | Path.Pdot (p, s) ->
    Option.map (fun segs -> segs @ [ s ]) (unit_path locals p)
  | Path.Papply _ | Path.Pextra_ty _ -> None

(* Rewrite the shortest prefix some unit declares as a module alias until
   none is left: the facade's [module Hist_catalog =
   Xmlest_histogram.Catalog], then dune's [module Catalog =
   Xmlest_histogram__Catalog] in the library's alias unit.  [fuel] bounds
   an alias cycle. *)
let expand_aliases aliases segs =
  let rec go fuel segs k =
    if k >= List.length segs then segs
    else
      let prefix = List.filteri (fun i _ -> i < k) segs in
      match Hashtbl.find_opt aliases (String.concat "." prefix) with
      | Some target when fuel > 0 ->
        go (fuel - 1) (target @ List.filteri (fun i _ -> i >= k) segs) 1
      | Some _ | None -> go fuel segs (k + 1)
  in
  go 32 segs 1

let rec alias_target me =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

(* Top-level module aliases of a unit, keyed "<Unit>.<Module>". *)
let collect_aliases aliases ~name str =
  let no_locals = Hashtbl.create 1 in
  List.iter
    (fun item ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } -> (
        match Option.bind (alias_target mb_expr) (unit_path no_locals) with
        | Some target ->
          Hashtbl.replace aliases (name ^ "." ^ Ident.name id) target
        | None -> ())
      | _ -> ())
    str.Typedtree.str_items

(* Record every value a unit names, as "<Unit>.<Sub>.<value>" with
   aliases expanded; [uses] maps it to [true] once a non-test unit names
   it.  A unit's references to its own values are [Pident]s and never
   reach the table. *)
let collect_uses ~aliases ~uses ~from_test str =
  let locals = Hashtbl.create 8 in
  let resolve p = Option.map (expand_aliases aliases) (unit_path locals p) in
  let bind id me =
    match Option.bind (alias_target me) resolve with
    | Some segs -> Hashtbl.replace locals (unique id) segs
    | None -> ()
  in
  let use segs =
    let key = String.concat "." segs in
    if not (from_test && Hashtbl.mem uses key) then
      Hashtbl.replace uses key (not from_test)
  in
  let open Tast_iterator in
  let module_binding self mb =
    Option.iter (fun id -> bind id mb.Typedtree.mb_expr) mb.Typedtree.mb_id;
    default_iterator.module_binding self mb
  in
  let expr self e =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> Option.iter use (resolve p)
    | Typedtree.Texp_letmodule (Some id, _, _, me, _) -> bind id me
    | _ -> ());
    default_iterator.expr self e
  in
  let iter = { default_iterator with module_binding; expr } in
  iter.structure iter str

(* The [val]s of an interface, submodule signatures included, as
   (segments from the unit, location). *)
let exports ~name sg =
  let rec items prefix sg acc =
    List.fold_left
      (fun acc item ->
        match item.Typedtree.sig_desc with
        | Typedtree.Tsig_value vd ->
          (prefix @ [ Ident.name vd.Typedtree.val_id ], vd.Typedtree.val_loc)
          :: acc
        | Typedtree.Tsig_module
            {
              md_id = Some id;
              md_type = { mty_desc = Typedtree.Tmty_signature sg; _ };
              _;
            } ->
          items (prefix @ [ Ident.name id ]) sg acc
        | _ -> acc)
      acc sg.Typedtree.sig_items
  in
  List.rev (items [ name ] sg [])

let unused_export_pass ~uses ~report ~name sg =
  List.iter
    (fun (segs, loc) ->
      let shown =
        match segs with
        | _ :: inner -> String.concat "." (demangle name :: inner)
        | [] -> demangle name
      in
      match Hashtbl.find_opt uses (String.concat "." segs) with
      | Some true -> ()
      | Some false -> report loc "unused-export" (shown ^ ": tests only")
      | None -> report loc "unused-export" (shown ^ ": no reference"))
    (exports ~name sg)

(* --- Driver ------------------------------------------------------------ *)

type annots = Impl of Typedtree.structure | Intf of Typedtree.signature

type unit_info = {
  u_name : string;  (* as compiled: "Xmlest_core__Summary" *)
  u_modname : string;  (* as the source spells it: "Summary" *)
  u_part : part;
  u_annots : annots;
}

let read_unit path =
  match Cmt_format.read_cmt path with
  | { Cmt_format.cmt_annots; cmt_modname; cmt_sourcefile; _ } -> (
    let unit annots =
      Ok
        (Some
           {
             u_name = cmt_modname;
             u_modname = demangle cmt_modname;
             u_part = part_of (Option.value cmt_sourcefile ~default:path);
             u_annots = annots;
           })
    in
    match cmt_annots with
    | Cmt_format.Implementation str -> unit (Impl str)
    | Cmt_format.Interface sg -> unit (Intf sg)
    | _ -> Ok None)
  | exception exn ->
    Error
      {
        file = path;
        line = 1;
        rule = "cmt-error";
        message = Printexc.to_string exn;
      }

let read_source path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

(* Suppressions come from the source text, same syntax and placement
   rules as the linter: a [(* lint: allow <rule> *)] comment on the
   finding's line or the line above. *)
(* lint: allow mutable-global — per-process memo of parsed allow comments *)
let allows_cache : (string, (int * string) list) Hashtbl.t = Hashtbl.create 16

let allows_for file =
  match Hashtbl.find_opt allows_cache file with
  | Some allows -> allows
  | None ->
    let allows =
      match read_source file with
      | Some src -> Lint.allow_lines src
      | None -> []
    in
    Hashtbl.add allows_cache file allows;
    allows

let analyze_units units =
  let table : decl_table = Hashtbl.create 256 in
  let aliases = Hashtbl.create 64 in
  let uses = Hashtbl.create 1024 in
  let impls =
    List.filter_map
      (fun u -> match u.u_annots with Impl str -> Some (u, str) | Intf _ -> None)
      units
  in
  List.iter
    (fun (u, str) ->
      collect_decls table ~modname:u.u_modname str;
      collect_aliases aliases ~name:u.u_name str)
    impls;
  let out = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let report loc rule message =
    let file = file_of loc in
    let line = line_of loc in
    if not (Lint.suppressed (allows_for file) rule line) then begin
      let key = Printf.sprintf "%s:%d:%s:%s" file line rule message in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := { file; line; rule; message } :: !out
      end
    end
  in
  List.iter
    (fun (u, str) ->
      collect_uses ~aliases ~uses ~from_test:(u.u_part = Test) str;
      match u.u_part with
      | Library | Program ->
        let defs = collect_defs str in
        domain_escape_pass ~table ~selfmod:u.u_modname ~defs ~report str;
        resource_pass ~report str
      | Example | Test -> ())
    impls;
  List.iter
    (fun u ->
      match (u.u_part, u.u_annots) with
      | Library, Intf sg -> unused_export_pass ~uses ~report ~name:u.u_name sg
      | _ -> ())
    units;
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> (
        match Int.compare a.line b.line with
        | 0 -> String.compare a.rule b.rule
        | c -> c)
      | c -> c)
    !out

(* Walk directories for [.cmt] and [.cmti] files.  Unlike the linter's
   source walk, dot-directories are not skipped: dune keeps compilation
   artifacts under [.objs]/[.eobjs]. *)
let rec collect_cmts path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> collect_cmts (Filename.concat path entry) acc)
      acc (Sys.readdir path)
  else if
    Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
  then path :: acc
  else acc

let analyze_cmt_files cmts =
  let errors = ref [] in
  let units =
    List.filter_map
      (fun path ->
        match read_unit path with
        | Ok u -> u
        | Error f ->
          errors := f :: !errors;
          None)
      (List.sort String.compare cmts)
  in
  List.rev !errors @ analyze_units units

let analyze_paths paths =
  let cmts =
    List.fold_left
      (fun acc p ->
        if Sys.file_exists p then collect_cmts p acc
        else (
          Format.eprintf "analyze: no such path %s@." p;
          acc))
      [] paths
  in
  analyze_cmt_files cmts

let pp_finding = Lint.pp_finding
