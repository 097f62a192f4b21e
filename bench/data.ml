(* Data sets and predicate sets shared by the benchmark sections.
   Documents are built once and memoized. *)

open Xmlest_core

let dblp_scale =
  match Sys.getenv_opt "XMLEST_DBLP_SCALE" with
  | Some s -> ( try float_of_string s with Failure _ -> 1.0)
  | None -> 1.0

let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      cell := Some v;
      v

let dblp =
  memo (fun () -> Xmlest.Document.of_elem (Xmlest.Dblp_gen.generate_scaled dblp_scale))

let staff = memo (fun () -> Xmlest.Document.of_elem (Xmlest.Staff_gen.generate ()))

let xmark =
  memo (fun () -> Xmlest.Document.of_elem (Xmlest.Xmark_gen.generate ~scale:0.5 ()))

let shakespeare =
  memo (fun () -> Xmlest.Document.of_elem (Xmlest.Shakespeare_gen.generate ()))

let treebank =
  memo (fun () -> Xmlest.Document.of_elem (Xmlest.Treebank_gen.generate ~sentences:400 ()))

(* Table 1's predicate set, including the content and compound predicates. *)
let tagp = Xmlest.Predicate.tag

let decade d =
  Xmlest.Predicate.any_of
    (List.init 10 (fun k ->
         Xmlest.Predicate.text_eq ~tag:"year" (string_of_int (d + k))))

let dblp_predicates () =
  [
    ("article", tagp "article");
    ("author", tagp "author");
    ("book", tagp "book");
    ("cdrom", tagp "cdrom");
    ("cite", tagp "cite");
    ("title", tagp "title");
    ("url", tagp "url");
    ("year", tagp "year");
    ("conf", Xmlest.Predicate.text_prefix ~tag:"cite" "conf");
    ("journal", Xmlest.Predicate.text_prefix ~tag:"cite" "journal");
    ("1980's", decade 1980);
    ("1990's", decade 1990);
  ]

let staff_predicates () =
  [
    ("manager", tagp "manager");
    ("department", tagp "department");
    ("employee", tagp "employee");
    ("email", tagp "email");
    ("name", tagp "name");
  ]

let dblp_summary =
  memo (fun () ->
      (* Per-year histograms are base predicates in the paper; register them
         so that decade compounds resolve by summation. *)
      let years =
        List.init 40 (fun k ->
            Xmlest.Predicate.text_eq ~tag:"year" (string_of_int (1960 + k)))
      in
      Xmlest.Summary.build ~grid_size:10 (dblp ())
        (List.map snd (dblp_predicates ()) @ years))

let staff_summary =
  memo (fun () ->
      Xmlest.Summary.build ~grid_size:10 (staff ()) (List.map snd (staff_predicates ())))

let real_pair doc anc desc =
  Xmlest.Structural_join.count_pairs doc
    (Xmlest.Predicate.matching_nodes doc anc)
    (Xmlest.Predicate.matching_nodes doc desc)

(* Wall-clock seconds (monotonic clock) per call of [f], amortized over
   enough repetitions to make the clock meaningful. *)
let time_per_call f =
  let reps = ref 1 in
  let rec measure () =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to !reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
    if dt < 0.05 && !reps < 1_000_000 then begin
      reps := !reps * 10;
      measure ()
    end
    else dt /. float_of_int !reps
  in
  measure ()
