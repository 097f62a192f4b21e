(* Tests for the Typedtree analyzer (tools/analyze): each pass fires on
   a compiled known-bad fixture at the expected file:line, stays silent
   on the idiomatic replacement, and honors [lint: allow] suppressions;
   the repository's own compiled units analyze clean.

   Fixtures are written to a scratch directory and compiled to [.cmt] and
   [.cmti] with the bytecode compiler ([-bin-annot -c]); absolute source
   paths keep the suppression scanner working whatever the test's cwd
   is.  A fixture's part in the program comes from the directory it sits
   in: the pass fixtures sit in [bin/], the unused-export fixtures export
   from [lib/] and are called from [bin/] and [test/]. *)

open Xmlest_test_util
module Analyze = Xmlest_analyze.Analyze
module Lint = Xmlest_lint.Lint

let check = Alcotest.check

let write path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let compile ?(incl = []) srcs =
  let args =
    [ "-bin-annot"; "-c" ]
    @ List.concat_map (fun d -> [ "-I"; d ]) incl
    @ srcs
  in
  let cmd = Filename.quote_command "ocamlc" args in
  if Sys.command cmd <> 0 then
    Alcotest.failf "fixture compilation failed: %s" cmd

(* One scratch tree shared by every test: write and compile all fixtures
   once, hand out [.cmt] paths by basename. *)
let fixtures =
  lazy
    (let dir = Filename.concat (Filename.temp_dir "xmlest_analyze" "") "bin" in
     Sys.mkdir dir 0o755;
     let file name content =
       let path = Filename.concat dir name in
       write path content;
       path
     in
     let escape_bad =
       file "escape_bad.ml"
         "let bad () =\n\
         \  let counts = Array.make 4 0 in\n\
         \  let d = Domain.spawn (fun () -> counts.(0) <- 1) in\n\
         \  Domain.join d;\n\
         \  counts.(0)\n"
     in
     let escape_good =
       file "escape_good.ml"
         "let good () =\n\
         \  let n = 41 in\n\
         \  let d = Domain.spawn (fun () -> n + 1) in\n\
         \  Domain.join d\n"
     in
     let escape_indirect =
       file "escape_indirect.ml"
         "let indirect () =\n\
         \  let acc = ref 0 in\n\
         \  let worker () = acc := 1 in\n\
         \  let d = Domain.spawn worker in\n\
         \  Domain.join d\n"
     in
     let pool =
       file "pool.ml"
         "let run ~domains ~tasks f =\n\
         \  ignore domains;\n\
         \  Array.init tasks f\n"
     in
     let pool_bad =
       file "pool_bad.ml"
         "let total () =\n\
         \  let acc = ref 0 in\n\
         \  let chunks = Pool.run ~domains:2 ~tasks:4 (fun i -> acc := !acc + i) in\n\
         \  ignore chunks;\n\
         \  !acc\n"
     in
     let escape_record =
       file "escape_record.ml"
         "type counter = { mutable hits : int }\n\
          let bump () =\n\
         \  let c = { hits = 0 } in\n\
         \  let d = Domain.spawn (fun () -> c.hits <- c.hits + 1) in\n\
         \  Domain.join d\n"
     in
     let leak_out =
       file "leak_out.ml"
         "let bad path =\n\
         \  let oc = open_out path in\n\
         \  output_string oc \"hi\";\n\
         \  close_out oc\n"
     in
     let leak_temp =
       file "leak_temp.ml"
         "let bad () =\n\
         \  let tmp = Filename.temp_file \"xmlest\" \".tmp\" in\n\
         \  ignore tmp\n"
     in
     let leak_good =
       file "leak_good.ml"
         "let good path =\n\
         \  let oc = open_out path in\n\
         \  Fun.protect\n\
         \    ~finally:(fun () -> close_out_noerr oc)\n\
         \    (fun () -> output_string oc \"hi\")\n\
          \n\
          let owner path = open_in path\n\
          \n\
          let wrapped path =\n\
         \  let ic = open_in path in\n\
         \  (path, ic)\n"
     in
     let leak_allow =
       file "leak_allow.ml"
         "let handed path =\n\
         \  (* lint: allow resource-leak -- closed by the registered hook *)\n\
         \  let oc = open_out path in\n\
         \  output_string oc \"x\"\n"
     in
     compile [ pool ];
     compile ~incl:[ dir ]
       [
         escape_bad; escape_good; escape_indirect; pool_bad; escape_record;
         leak_out; leak_temp; leak_good; leak_allow;
       ];
     dir)

let cmt name =
  Filename.concat (Lazy.force fixtures) (Filename.remove_extension name ^ ".cmt")

let analyze names = Analyze.analyze_cmt_files (List.map cmt names)

(* --- unused-export fixtures ---------------------------------------------- *)

(* One [.mli]/[.ml] pair under [lib/] per case, each exporting the value
   [v] on its interface's first line, with callers in [bin/] and [test/]. *)
let export_fixtures =
  lazy
    (let root = Filename.temp_dir "xmlest_exports" "" in
     let sub name =
       let d = Filename.concat root name in
       Sys.mkdir d 0o755;
       d
     in
     let lib = sub "lib" and bin = sub "bin" and test = sub "test" in
     let file dir name content =
       let path = Filename.concat dir name in
       write path content;
       path
     in
     let pair name ?(mli = "val v : int\n") ml =
       [ file lib (name ^ ".mli") mli; file lib (name ^ ".ml") ml ]
     in
     let lib_srcs =
       pair "unused" "let v = 1\n"
       @ pair "tested" "let v = 2\n"
       @ pair "aliased" "let v = 3\n"
       @ pair "let_bound" "let v = 4\n"
       @ pair "renamed" "let v = 5\n"
       @ pair "self_only" ~mli:"val v : int\nval w : int\n" "let v = 6\nlet w = v + 1\n"
       @ pair "allowed"
           ~mli:"val v : int\n(* lint: allow unused-export -- fixture *)\nval u : int\n"
           "let v = 7\nlet u = 8\n"
       @ [ file lib "facade.ml" "module Rename = Renamed\n" ]
     in
     let user =
       file bin "user.ml"
         "module A = Aliased\n\
          let a = A.v\n\
          let b = let module L = Let_bound in L.v\n\
          let c = Facade.Rename.v\n\
          let d = Self_only.w + Allowed.v\n"
     in
     let t = file test "t.ml" "let t = Tested.v\n" in
     compile ~incl:[ lib ] lib_srcs;
     compile ~incl:[ lib ] [ user; t ];
     root)

(* unused-export findings over the whole fixture tree, as
   (interface basename, line, message). *)
let export_findings =
  lazy
    (List.filter_map
       (fun f ->
         if String.equal f.Lint.rule "unused-export" then
           Some (Filename.basename f.Lint.file, f.Lint.line, f.Lint.message)
         else None)
       (Analyze.analyze_paths [ Lazy.force export_fixtures ]))

let findings_in mli =
  List.filter (fun (file, _, _) -> String.equal file mli) (Lazy.force export_findings)

let rule_lines rule findings =
  List.filter_map
    (fun f ->
      if String.equal f.Lint.rule rule then
        Some (Filename.basename f.Lint.file, f.Lint.line)
      else None)
    findings

let pairs = Alcotest.(list (pair string int))

let contains hay needle = Test_util.contains_substring hay needle

(* --- domain-escape ------------------------------------------------------ *)

let test_escape_direct () =
  let findings = analyze [ "escape_bad.ml" ] in
  check pairs "mutable capture crossing Domain.spawn"
    [ ("escape_bad.ml", 3) ]
    (rule_lines "domain-escape" findings);
  let f = List.find (fun f -> String.equal f.Lint.rule "domain-escape") findings in
  check Alcotest.bool "names the capture" true (contains f.Lint.message "`counts'");
  check Alcotest.bool "names the sink" true (contains f.Lint.message "Domain.spawn");
  check Alcotest.bool "explains the type" true (contains f.Lint.message "int array")

let test_escape_chunk_local () =
  check pairs "immutable captures pass" []
    (rule_lines "domain-escape" (analyze [ "escape_good.ml" ]))

let test_escape_indirect () =
  let findings = analyze [ "escape_indirect.ml" ] in
  check pairs "capture through a let-bound worker, reported at the spawn"
    [ ("escape_indirect.ml", 4) ]
    (rule_lines "domain-escape" findings);
  let f = List.find (fun f -> String.equal f.Lint.rule "domain-escape") findings in
  check Alcotest.bool "attributes the indirection" true
    (contains f.Lint.message "via `worker'")

let test_escape_pool () =
  let findings = analyze [ "pool.ml"; "pool_bad.ml" ] in
  check pairs "mutable capture crossing Pool.run"
    [ ("pool_bad.ml", 3) ]
    (rule_lines "domain-escape" findings);
  let f = List.find (fun f -> String.equal f.Lint.rule "domain-escape") findings in
  check Alcotest.bool "names the sink" true (contains f.Lint.message "Pool.run")

let test_escape_mutable_record () =
  (* Transitive mutability through the declaration table: a record with a
     [mutable] field is shared mutable state even though no builtin
     mutable head appears in its type. *)
  let findings = analyze [ "escape_record.ml" ] in
  check pairs "record with a mutable field"
    [ ("escape_record.ml", 4) ]
    (rule_lines "domain-escape" findings)

(* --- resource-leak ------------------------------------------------------ *)

let test_leak_channel () =
  let findings = analyze [ "leak_out.ml" ] in
  check pairs "unprotected open_out"
    [ ("leak_out.ml", 2) ]
    (rule_lines "resource-leak" findings);
  let f = List.find (fun f -> String.equal f.Lint.rule "resource-leak") findings in
  check Alcotest.bool "names the binding" true (contains f.Lint.message "`oc'");
  check Alcotest.bool "prescribes the fix" true (contains f.Lint.message "Fun.protect")

let test_leak_temp_file () =
  let findings = analyze [ "leak_temp.ml" ] in
  check pairs "leaked temp file"
    [ ("leak_temp.ml", 2) ]
    (rule_lines "resource-leak" findings);
  let f = List.find (fun f -> String.equal f.Lint.rule "resource-leak") findings in
  check Alcotest.bool "names the acquisition" true
    (contains f.Lint.message "Filename.temp_file")

let test_leak_negatives () =
  (* Fun.protect release, whole-body ownership transfer, and a tuple
     carrying the channel to the caller are all legal. *)
  check pairs "protected and escaping acquisitions pass" []
    (rule_lines "resource-leak" (analyze [ "leak_good.ml" ]))

(* --- unused-export -------------------------------------------------------- *)

let export_rows = Alcotest.(list (triple string int string))

let test_export_no_reference () =
  check export_rows "an export nothing names" [ ("unused.mli", 1, "Unused.v: no reference") ]
    (findings_in "unused.mli")

let test_export_tests_only () =
  check export_rows "an export only test/ names" [ ("tested.mli", 1, "Tested.v: tests only") ]
    (findings_in "tested.mli")

let test_export_module_alias () =
  check export_rows "used through module A = Aliased" [] (findings_in "aliased.mli")

let test_export_let_module () =
  check export_rows "used through let module L = Let_bound" [] (findings_in "let_bound.mli")

let test_export_facade_rename () =
  check export_rows "used through Facade.Rename, an alias of Renamed" []
    (findings_in "renamed.mli")

let test_export_self_reference () =
  check export_rows "its own module's use is no reference"
    [ ("self_only.mli", 1, "Self_only.v: no reference") ]
    (findings_in "self_only.mli")

let test_export_suppressed () =
  check export_rows "lint: allow unused-export" [] (findings_in "allowed.mli")

(* --- suppression and errors --------------------------------------------- *)

let test_suppression () =
  check pairs "lint: allow resource-leak" []
    (rule_lines "resource-leak" (analyze [ "leak_allow.ml" ]))

let test_cmt_error () =
  let dir = Lazy.force fixtures in
  let garbage = Filename.concat dir "garbage.cmt" in
  write garbage "not a cmt file";
  let findings = Analyze.analyze_cmt_files [ garbage ] in
  check Alcotest.bool "unreadable input is a finding, not an exception" true
    (List.exists (fun f -> String.equal f.Lint.rule "cmt-error") findings)

let test_rules_documented () =
  let advertised = List.map fst Analyze.rules in
  List.iter
    (fun rule ->
      check Alcotest.bool ("documented: " ^ rule) true
        (List.exists (String.equal rule) advertised))
    [ "domain-escape"; "resource-leak"; "unused-export"; "cmt-error" ]

let test_rendering () =
  List.iter
    (fun f ->
      let rendered = Format.asprintf "%a" Analyze.pp_finding f in
      let prefix =
        Printf.sprintf "%s:%d %s " f.Lint.file f.Lint.line f.Lint.rule
      in
      check Alcotest.bool
        ("rendered as file:line rule: " ^ rendered)
        true
        (String.starts_with ~prefix rendered))
    (analyze [ "escape_bad.ml"; "leak_out.ml" ])

(* --- the repository itself ---------------------------------------------- *)

let test_repo_is_clean () =
  (* The test runs from _build/default/test; the library cmts one level
     up were built before this binary linked.  Analyze them from the
     build root so the allow comments in the copied sources resolve. *)
  let root = Filename.dirname (Sys.getcwd ()) in
  let lib = Filename.concat root "lib" in
  if not (Sys.file_exists lib && Sys.is_directory lib) then ()
  else begin
    let cwd = Sys.getcwd () in
    Sys.chdir root;
    Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
    let findings =
      List.filter
        (fun f ->
          String.equal f.Lint.rule "domain-escape"
          || String.equal f.Lint.rule "resource-leak")
        (Analyze.analyze_paths [ "lib" ])
    in
    check
      Alcotest.(list string)
      "lib/ analyzes clean" []
      (List.map (Format.asprintf "%a" Analyze.pp_finding) findings)
  end

let () =
  Alcotest.run "analyze"
    [
      ( "domain-escape",
        [
          Alcotest.test_case "direct capture" `Quick test_escape_direct;
          Alcotest.test_case "chunk-local passes" `Quick test_escape_chunk_local;
          Alcotest.test_case "via worker" `Quick test_escape_indirect;
          Alcotest.test_case "Pool.run" `Quick test_escape_pool;
          Alcotest.test_case "mutable record" `Quick test_escape_mutable_record;
        ] );
      ( "resource-leak",
        [
          Alcotest.test_case "unprotected channel" `Quick test_leak_channel;
          Alcotest.test_case "leaked temp file" `Quick test_leak_temp_file;
          Alcotest.test_case "negatives" `Quick test_leak_negatives;
        ] );
      ( "unused-export",
        [
          Alcotest.test_case "no reference" `Quick test_export_no_reference;
          Alcotest.test_case "tests only" `Quick test_export_tests_only;
          Alcotest.test_case "module alias" `Quick test_export_module_alias;
          Alcotest.test_case "let module" `Quick test_export_let_module;
          Alcotest.test_case "facade rename" `Quick test_export_facade_rename;
          Alcotest.test_case "own module only" `Quick test_export_self_reference;
          Alcotest.test_case "lint: allow" `Quick test_export_suppressed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "lint: allow" `Quick test_suppression;
          Alcotest.test_case "cmt-error" `Quick test_cmt_error;
          Alcotest.test_case "rule table" `Quick test_rules_documented;
          Alcotest.test_case "rendering" `Quick test_rendering;
          Alcotest.test_case "repo self-check" `Quick test_repo_is_clean;
        ] );
    ]
