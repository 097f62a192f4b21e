open Xmlest_xmldb
type config = {
  seed : int;
  n_records : int;
  p_article : float;
  p_book : float;  (* remaining records are inproceedings/incollection/phdthesis *)
  authors_mean : float;  (* mean authors per record (>= 1) *)
  p_url : float;
  group_by_kind : bool;  (* emit records grouped by kind, as dblp.xml does *)
  cdrom_rate : string -> float;  (* per record kind *)
  cite_profile : string -> float * float;  (* (p_has_cites, mean cites when citing) *)
}

let default_config =
  {
    seed = 1109;
    n_records = 19_921;
    (* Table 1: 7,366 articles and 408 books out of ~19.9k records. *)
    p_article = 0.370;
    p_book = 0.0205;
    (* 41,501 authors / 19,921 records. *)
    authors_mean = 2.08;
    (* 19,542 urls / 19,921 records. *)
    p_url = 0.981;
    (* dblp.xml groups records of one kind together; this positional
       clustering is what lets coverage histograms separate, e.g., cdroms
       under articles from the rest (Table 2). *)
    group_by_kind = true;
    (* Table 2's real results pin the per-kind rates: 130 of 7,366
       articles and 3 of 408 books carry a cdrom; the remaining 1,589
       cdroms sit on the other ~12.1k records. *)
    cdrom_rate =
      (function
      | "article" -> 0.0176
      | "book" -> 0.0074
      | _ -> 0.131);
    (* 5,114 of the 33,097 cites hang under articles (Table 2), the rest
       under the other kinds: articles cite ~0.69 on average, others ~2.2,
       concentrated in a minority of records with real reference lists. *)
    cite_profile =
      (function
      | "article" -> (0.20, 3.5)
      | "book" -> (0.10, 3.0)
      | _ -> (0.40, 5.6));
  }

let config ?(seed = 1109) ~scale () =
  {
    default_config with
    seed;
    n_records =
      Int.max 1 (int_of_float (float_of_int default_config.n_records *. scale));
  }

let venues_conf =
  [| "conf/vldb"; "conf/sigmod"; "conf/icde"; "conf/edbt"; "conf/pods" |]

let venues_journal =
  [| "journals/tods"; "journals/vldb"; "journals/tkde"; "journals/sigmodrec" |]

let venues_other = [| "books/mk"; "phd/dblp"; "tr/umich"; "series/lncs" |]

let cite_text rng =
  (* Table 1: of 33k cites, 13.6k start with "conf" and 7.8k with
     "journal"; the rest point at books, theses, reports, ... *)
  let base =
    Splitmix.weighted rng
      [
        (0.411, Splitmix.choose rng venues_conf);
        (0.237, Splitmix.choose rng venues_journal);
        (0.352, Splitmix.choose rng venues_other);
      ]
  in
  Printf.sprintf "%s/%s%d" base (Text_pool.word rng) (Splitmix.int rng 10_000)

let year_text rng =
  (* Table 1: 13,066 of 19,914 years in the 1980s, 3,963 in the 1990s. *)
  let decade =
    Splitmix.weighted rng [ (0.656, 1980); (0.199, 1990); (0.145, 1960) ]
  in
  let span = if decade = 1960 then 20 else 10 in
  string_of_int (decade + Splitmix.int rng span)

let record rng kind cfg =
  let children = ref [] in
  let add e = children := e :: !children in
  let n_authors =
    Int.max 1 (Distributions.poisson rng (cfg.authors_mean -. 1.0) + 1)
  in
  for _ = 1 to n_authors do
    add (Elem.leaf "author" (Text_pool.person rng))
  done;
  add (Elem.leaf "title" (Text_pool.title rng));
  if Splitmix.bool rng 0.55 then
    add (Elem.leaf "pages" (Printf.sprintf "%d-%d" (Splitmix.int rng 800) (Splitmix.int rng 900)));
  add (Elem.leaf "year" (year_text rng));
  if kind = "article" then
    add (Elem.leaf "journal" (Splitmix.choose rng venues_journal))
  else if kind = "inproceedings" then
    add (Elem.leaf "booktitle" (Splitmix.choose rng venues_conf));
  if Splitmix.bool rng cfg.p_url then
    add (Elem.leaf "url" (Printf.sprintf "db/%s.html#%s" (Text_pool.word rng)
                            (Text_pool.identifier rng ~prefix:"r")));
  if Splitmix.bool rng (cfg.cdrom_rate kind) then
    add (Elem.leaf "cdrom" (Printf.sprintf "CDROM/%s%d" (Text_pool.word rng) (Splitmix.int rng 100)));
  let p_has_cites, cites_mean = cfg.cite_profile kind in
  if Splitmix.bool rng p_has_cites then begin
    let n = Int.max 1 (Distributions.poisson rng (cites_mean -. 1.0) + 1) in
    for _ = 1 to n do
      add (Elem.leaf "cite" (cite_text rng))
    done
  end;
  Elem.make
    ~attrs:[ ("key", Text_pool.identifier rng ~prefix:(kind ^ "/")) ]
    ~children:(List.rev !children) kind

let kind_rank = function
  | "article" -> 0
  | "inproceedings" -> 1
  | "incollection" -> 2
  | "book" -> 3
  | "phdthesis" -> 4
  | _ -> 5

let generate cfg =
  let rng = Splitmix.create cfg.seed in
  let records = ref [] in
  for _ = 1 to cfg.n_records do
    let kind =
      Splitmix.weighted rng
        [
          (cfg.p_article, "article");
          (cfg.p_book, "book");
          (0.50, "inproceedings");
          (0.08, "incollection");
          (0.03, "phdthesis");
        ]
    in
    records := (kind, record rng kind cfg) :: !records
  done;
  let records = List.rev !records in
  let records =
    if cfg.group_by_kind then
      List.stable_sort
        (fun (a, _) (b, _) -> Int.compare (kind_rank a) (kind_rank b))
        records
    else records
  in
  Elem.make ~children:(List.map snd records) "dblp"

let generate_scaled ?seed scale = generate (config ?seed ~scale ())
