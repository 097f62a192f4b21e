open Xmlest_xmldb

type t =
  | True
  | Tag of string
  | Text_eq of string
  | Text_prefix of string
  | Text_suffix of string
  | Text_contains of string
  | Attr_eq of string * string
  | Level_eq of int
  | And of t * t
  | Or of t * t
  | Not of t

(* Substring search with a precomputed KMP failure table: O(m) to build,
   O(n) per match, no per-offset String.sub allocation.  Compiled
   predicates build the table once and reuse it for every node. *)
module Substring = struct
  type t = { pattern : string; failure : int array }

  let make pattern =
    let m = String.length pattern in
    let failure = Array.make (Int.max m 1) 0 in
    let k = ref 0 in
    for i = 1 to m - 1 do
      while !k > 0 && not (Char.equal pattern.[!k] pattern.[i]) do
        k := failure.(!k - 1)
      done;
      if Char.equal pattern.[!k] pattern.[i] then incr k;
      failure.(i) <- !k
    done;
    { pattern; failure }


  let matches t s =
    let m = String.length t.pattern in
    if m = 0 then true
    else begin
      let n = String.length s in
      let k = ref 0 in
      let i = ref 0 in
      let found = ref false in
      while (not !found) && !i < n do
        while !k > 0 && not (Char.equal t.pattern.[!k] s.[!i]) do
          k := t.failure.(!k - 1)
        done;
        if Char.equal t.pattern.[!k] s.[!i] then incr k;
        if Int.equal !k m then found := true;
        incr i
      done;
      !found
    end
end

let contains ~sub s = Substring.matches (Substring.make sub) s

let rec eval p doc v =
  match p with
  | True -> true
  | Tag t -> String.equal (Document.tag doc v) t
  | Text_eq s -> String.equal (Document.text doc v) s
  | Text_prefix s -> String.starts_with ~prefix:s (Document.text doc v)
  | Text_suffix s -> String.ends_with ~suffix:s (Document.text doc v)
  | Text_contains s -> contains ~sub:s (Document.text doc v)
  | Attr_eq (k, value) -> (
    match List.assoc_opt k (Document.attrs doc v) with
    | Some x -> String.equal x value
    | None -> false)
  | Level_eq l -> Int.equal (Document.level doc v) l
  | And (a, b) -> eval a doc v && eval b doc v
  | Or (a, b) -> eval a doc v || eval b doc v
  | Not a -> not (eval a doc v)

let rec tag_of = function
  | Tag t -> Some t
  | And (a, b) -> ( match tag_of a with Some t -> Some t | None -> tag_of b)
  | _ -> None

(* The tag a node must carry to satisfy [p], as evaluation and dispatch
   pin it: [tag_of]'s rule, and also a disjunction whose branches pin the
   same tag.  [tag_of] keeps the narrower rule because stored summaries
   record it per section. *)
let rec pinned_tag = function
  | Tag t -> Some t
  | And (a, b) -> ( match pinned_tag a with Some t -> Some t | None -> pinned_tag b)
  | Or (a, b) -> (
    match (pinned_tag a, pinned_tag b) with
    | Some x, Some y when String.equal x y -> Some x
    | (Some _ | None), _ -> None)
  | True | Text_eq _ | Text_prefix _ | Text_suffix _ | Text_contains _
  | Attr_eq _ | Level_eq _ | Not _ ->
    None

let matching_nodes doc p =
  match p with
  | True -> Array.init (Document.size doc) Fun.id
  | Tag t -> Array.copy (Document.nodes_with_tag doc t)
  | p -> (
    (* Narrow the scan with the tag index when [p] pins the tag. *)
    match pinned_tag p with
    | Some t ->
      let candidates = Document.nodes_with_tag doc t in
      Array.of_seq
        (Seq.filter (fun v -> eval p doc v) (Array.to_seq candidates))
    | None ->
      let out = ref [] in
      for v = Document.size doc - 1 downto 0 do
        if eval p doc v then out := v :: !out
      done;
      Array.of_list !out)


(* --- Compilation ------------------------------------------------------ *)

(* A node as both construction sources see it: its interned tag id, its
   attributes, its trimmed character data and its level.  The document
   sweep reads these parts from the store; a SAX close event carries
   them.  Lowering the AST once into a closure over the parts serves
   both: tag comparisons become integer comparisons over the source's
   tag ids (constant [false] when the tag has no id), substring patterns
   get their KMP table built once, and boolean structure becomes closure
   composition — the per-node work never touches the AST again. *)
type lowered =
  tag:int -> attrs:(string * string) list -> text:string -> level:int -> bool

let lower ~tag_id p : lowered =
  let rec go p =
    match p with
    | True -> fun ~tag:_ ~attrs:_ ~text:_ ~level:_ -> true
    | Tag t -> (
      match tag_id t with
      | Some id -> fun ~tag ~attrs:_ ~text:_ ~level:_ -> Int.equal tag id
      | None -> fun ~tag:_ ~attrs:_ ~text:_ ~level:_ -> false)
    | Text_eq s -> fun ~tag:_ ~attrs:_ ~text ~level:_ -> String.equal text s
    | Text_prefix s ->
      fun ~tag:_ ~attrs:_ ~text ~level:_ -> String.starts_with ~prefix:s text
    | Text_suffix s ->
      fun ~tag:_ ~attrs:_ ~text ~level:_ -> String.ends_with ~suffix:s text
    | Text_contains s ->
      let m = Substring.make s in
      fun ~tag:_ ~attrs:_ ~text ~level:_ -> Substring.matches m text
    | Attr_eq (k, value) -> (
      fun ~tag:_ ~attrs ~text:_ ~level:_ ->
        match List.assoc_opt k attrs with
        | Some x -> String.equal x value
        | None -> false)
    | Level_eq l -> fun ~tag:_ ~attrs:_ ~text:_ ~level -> Int.equal level l
    | And (a, b) ->
      let fa = go a and fb = go b in
      fun ~tag ~attrs ~text ~level ->
        fa ~tag ~attrs ~text ~level && fb ~tag ~attrs ~text ~level
    | Or (a, b) ->
      let fa = go a and fb = go b in
      fun ~tag ~attrs ~text ~level ->
        fa ~tag ~attrs ~text ~level || fb ~tag ~attrs ~text ~level
    | Not a ->
      let fa = go a in
      fun ~tag ~attrs ~text ~level -> not (fa ~tag ~attrs ~text ~level)
  in
  go p

(* Where dispatch sends [p]: to the nodes of its pinned tag (by id, with
   the tag's name), to every node, or nowhere when the source has no
   such tag. *)
let pin ~tag_id p =
  match pinned_tag p with
  | None -> `Any
  | Some t -> (
    match tag_id t with Some id -> `Tag (id, t) | None -> `Nothing)

let target doc p =
  match pin ~tag_id:(Document.lookup_tag_id doc) p with
  | `Tag (id, _) -> `Tag id
  | (`Any | `Nothing) as t -> t

(* --- Dispatch table --------------------------------------------------- *)

(* On a node of tag [t], some predicates reduce to "the text is one of
   S": [Text_eq], a conjunction of [Tag t] with a reducing predicate, a
   disjunction of reducing ones.  [family_texts t p acc] is S prepended
   to [acc] when [p] reduces, [None] otherwise. *)
let rec family_texts t p acc =
  match p with
  | Text_eq s -> Some (s :: acc)
  | And (Tag t', x) when String.equal t t' -> family_texts t x acc
  | And (x, Tag t') when String.equal t t' -> family_texts t x acc
  | Or (a, b) -> Option.bind (family_texts t a acc) (family_texts t b)
  | True | Tag _ | Text_prefix _ | Text_suffix _ | Text_contains _ | Attr_eq _
  | Level_eq _ | And _ | Not _ ->
    None

module Texts = Hashtbl.Make (String)

(* A tag's text-equality family: one probe with the node's text finds
   every member it satisfies. *)
type family = {
  members : int;  (* predicates in the family *)
  hits : int array Texts.t;  (* text -> member indices, ascending *)
}

type dispatch = {
  lowered : lowered array;
  ids : int Texts.t;  (* tag name -> id, for the tags the predicates name *)
  per_tag : int array array;  (* tag id -> pinned predicates run as closures *)
  families : family option array;  (* tag id -> its text-equality family *)
  unpinned : int array;  (* indices of predicates with no pinned tag *)
  needs_text : bool array;  (* tag id -> some predicate run there reads text *)
  unpinned_text : bool;  (* some unpinned predicate reads text *)
  mutable evals : int;
}

let rec tag_names p acc =
  match p with
  | Tag t -> t :: acc
  | And (a, b) | Or (a, b) -> tag_names a (tag_names b acc)
  | Not a -> tag_names a acc
  | True | Text_eq _ | Text_prefix _ | Text_suffix _ | Text_contains _ | Attr_eq _
  | Level_eq _ ->
    acc

let rec reads_text = function
  | Text_eq _ | Text_prefix _ | Text_suffix _ | Text_contains _ -> true
  | True | Tag _ | Attr_eq _ | Level_eq _ -> false
  | And (a, b) | Or (a, b) -> reads_text a || reads_text b
  | Not a -> reads_text a

(* [tag_id] is asked once per tag name the predicates mention. *)
let make_dispatch ~tag_id preds =
  let ids = Texts.create 16 in
  List.iter
    (fun p ->
      List.iter
        (fun t -> if not (Texts.mem ids t) then Option.iter (Texts.replace ids t) (tag_id t))
        (tag_names p []))
    preds;
  let tag_id = Texts.find_opt ids in
  let preds = Array.of_list preds in
  let pins = Array.map (pin ~tag_id) preds in
  let num_tags =
    Array.fold_left
      (fun m t -> match t with `Tag (id, _) -> Int.max m (id + 1) | `Any | `Nothing -> m)
      0 pins
  in
  let per_tag = Array.make num_tags [] in
  let members = Array.make num_tags 0 in
  let hits = Array.init num_tags (fun _ -> Texts.create 0) in
  let unpinned = ref [] in
  (* Ascending [k] makes each text's index list descending, so a repeat
     of [k] (a text named twice in one predicate) is at its head. *)
  let add_hit id k s =
    match Texts.find_opt hits.(id) s with
    | Some (k' :: _) when Int.equal k k' -> ()
    | Some ks -> Texts.replace hits.(id) s (k :: ks)
    | None -> Texts.replace hits.(id) s [ k ]
  in
  Array.iteri
    (fun k pin ->
      match pin with
      | `Tag (id, t) -> (
        match family_texts t preds.(k) [] with
        | Some texts ->
          members.(id) <- members.(id) + 1;
          List.iter (add_hit id k) texts
        | None -> per_tag.(id) <- k :: per_tag.(id))
      | `Any -> unpinned := k :: !unpinned
      | `Nothing -> ())
    pins;
  let family id =
    if Int.equal members.(id) 0 then None
    else begin
      let tbl = Texts.create (Texts.length hits.(id)) in
      Texts.iter (fun s ks -> Texts.replace tbl s (Array.of_list (List.rev ks))) hits.(id);
      Some { members = members.(id); hits = tbl }
    end
  in
  let unpinned_text = List.exists (fun k -> reads_text preds.(k)) !unpinned in
  {
    lowered = Array.map (lower ~tag_id) preds;
    ids;
    per_tag = Array.map (fun l -> Array.of_list (List.rev l)) per_tag;
    families = Array.init num_tags family;
    unpinned = Array.of_list (List.rev !unpinned);
    needs_text =
      Array.init num_tags (fun id ->
          unpinned_text || members.(id) > 0
          || List.exists (fun k -> reads_text preds.(k)) per_tag.(id));
    unpinned_text;
    evals = 0;
  }

let dispatch doc preds = make_dispatch ~tag_id:(Document.lookup_tag_id doc) preds

(* Without a document, tag ids are numbered from the tag names the
   predicates mention: a tag no predicate names has no id, so only the
   unpinned predicates run on it. *)
let dispatch_detached preds =
  let next = ref 0 in
  make_dispatch preds ~tag_id:(fun _ ->
      let id = !next in
      incr next;
      Some id)

let tag_id d name = match Texts.find_opt d.ids name with Some id -> id | None -> -1

let needs_text d tag =
  if tag >= 0 && tag < Array.length d.needs_text then Array.unsafe_get d.needs_text tag
  else d.unpinned_text

let run d k ~tag ~attrs ~text ~level ~f =
  d.evals <- d.evals + 1;
  if d.lowered.(k) ~tag ~attrs ~text ~level then f k

let dispatch_id d ~tag ~attrs ~text ~level ~f =
  if tag >= 0 && tag < Array.length d.per_tag then begin
    let pinned = d.per_tag.(tag) in
    for idx = 0 to Array.length pinned - 1 do
      run d pinned.(idx) ~tag ~attrs ~text ~level ~f
    done;
    match d.families.(tag) with
    | None -> ()
    | Some fam -> (
      (* one probe decides every member *)
      d.evals <- d.evals + fam.members;
      match Texts.find_opt fam.hits text with
      | Some ks -> Array.iter f ks
      | None -> ())
  end;
  for idx = 0 to Array.length d.unpinned - 1 do
    run d d.unpinned.(idx) ~tag ~attrs ~text ~level ~f
  done

let dispatch_node d doc v ~f =
  dispatch_id d ~tag:(Document.tag_id doc v) ~attrs:(Document.attrs doc v)
    ~text:(Document.text doc v) ~level:(Document.level doc v) ~f

let dispatch_evals d = d.evals

let rec name = function
  | True -> "true"
  | Tag t -> "tag=" ^ t
  | Text_eq s -> "text=" ^ s
  | Text_prefix s -> "prefix=" ^ s
  | Text_suffix s -> "suffix=" ^ s
  | Text_contains s -> "contains=" ^ s
  | Attr_eq (k, v) -> Printf.sprintf "@%s=%s" k v
  | Level_eq l -> Printf.sprintf "level=%d" l
  | And (a, b) -> name a ^ "&" ^ name b
  | Or (a, b) -> "(" ^ name a ^ "|" ^ name b ^ ")"
  | Not a -> "!(" ^ name a ^ ")"

let disjoint a b =
  match (tag_of a, tag_of b) with
  | Some x, Some y -> not (String.equal x y)
  | (Some _ | None), _ -> false

let rec equal a b =
  match (a, b) with
  | True, True -> true
  | Tag x, Tag y
  | Text_eq x, Text_eq y
  | Text_prefix x, Text_prefix y
  | Text_suffix x, Text_suffix y
  | Text_contains x, Text_contains y ->
    String.equal x y
  | Attr_eq (k1, v1), Attr_eq (k2, v2) -> String.equal k1 k2 && String.equal v1 v2
  | Level_eq x, Level_eq y -> Int.equal x y
  | And (x1, y1), And (x2, y2) | Or (x1, y1), Or (x2, y2) ->
    equal x1 x2 && equal y1 y2
  | Not x, Not y -> equal x y
  | ( ( True | Tag _ | Text_eq _ | Text_prefix _ | Text_suffix _
      | Text_contains _ | Attr_eq _ | Level_eq _ | And _ | Or _ | Not _ ),
      _ ) ->
    false

let pp ppf p = Format.pp_print_string ppf (name p)

let tag t = Tag t
let text_prefix ~tag p = And (Tag tag, Text_prefix p)
let text_eq ~tag v = And (Tag tag, Text_eq v)

let tag_predicates doc = List.map tag (Document.distinct_tags doc)

let any_of = function
  | [] -> invalid_arg "Predicate.any_of: empty list"
  | p :: ps -> List.fold_left (fun acc q -> Or (acc, q)) p ps

(* --- Serialization ---------------------------------------------------- *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_syntax = function
  | True -> "true"
  | Tag t -> Printf.sprintf "(tag %s)" (quote t)
  | Text_eq s -> Printf.sprintf "(text %s)" (quote s)
  | Text_prefix s -> Printf.sprintf "(prefix %s)" (quote s)
  | Text_suffix s -> Printf.sprintf "(suffix %s)" (quote s)
  | Text_contains s -> Printf.sprintf "(contains %s)" (quote s)
  | Attr_eq (k, v) -> Printf.sprintf "(attr %s %s)" (quote k) (quote v)
  | Level_eq l -> Printf.sprintf "(level %d)" l
  | And (a, b) -> Printf.sprintf "(and %s %s)" (to_syntax a) (to_syntax b)
  | Or (a, b) -> Printf.sprintf "(or %s %s)" (to_syntax a) (to_syntax b)
  | Not a -> Printf.sprintf "(not %s)" (to_syntax a)

(* Tiny s-expression reader specialized to the grammar above. *)
type token = Lp | Rp | Sym of string | Str of string | Num of int

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    (match src.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' ->
      out := Lp :: !out;
      incr i
    | ')' ->
      out := Rp :: !out;
      incr i
    | '"' ->
      incr i;
      let b = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        (match src.[!i] with
        | '\\' when !i + 1 < n ->
          Buffer.add_char b src.[!i + 1];
          i := !i + 1
        | '"' -> closed := true
        | ch -> Buffer.add_char b ch);
        incr i
      done;
      if not !closed then failwith "unterminated string";
      out := Str (Buffer.contents b) :: !out
    | ch when (ch >= '0' && ch <= '9') || ch = '-' ->
      let start = !i in
      incr i;
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
        incr i
      done;
      out := Num (int_of_string (String.sub src start (!i - start))) :: !out
    | ch when (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ->
      let start = !i in
      while !i < n && ((src.[!i] >= 'a' && src.[!i] <= 'z') || (src.[!i] >= 'A' && src.[!i] <= 'Z')) do
        incr i
      done;
      out := Sym (String.sub src start (!i - start)) :: !out
    | ch -> failwith (Printf.sprintf "unexpected character %C" ch));
  done;
  List.rev !out

let of_syntax src =
  let parse_error msg = failwith msg in
  let rec parse toks =
    match toks with
    | Sym "true" :: rest -> (True, rest)
    | Lp :: Sym kw :: rest -> (
      let str rest =
        match rest with
        | Str s :: rest -> (s, rest)
        | _ -> parse_error (kw ^ ": expected a string")
      in
      match kw with
      | "tag" ->
        let s, rest = str rest in
        close (Tag s) rest
      | "text" ->
        let s, rest = str rest in
        close (Text_eq s) rest
      | "prefix" ->
        let s, rest = str rest in
        close (Text_prefix s) rest
      | "suffix" ->
        let s, rest = str rest in
        close (Text_suffix s) rest
      | "contains" ->
        let s, rest = str rest in
        close (Text_contains s) rest
      | "attr" ->
        let k, rest = str rest in
        let v, rest = str rest in
        close (Attr_eq (k, v)) rest
      | "level" -> (
        match rest with
        | Num l :: rest -> close (Level_eq l) rest
        | _ -> parse_error "level: expected an integer")
      | "and" ->
        let a, rest = parse rest in
        let b, rest = parse rest in
        close (And (a, b)) rest
      | "or" ->
        let a, rest = parse rest in
        let b, rest = parse rest in
        close (Or (a, b)) rest
      | "not" ->
        let a, rest = parse rest in
        close (Not a) rest
      | kw -> parse_error ("unknown predicate form " ^ kw))
    | _ -> parse_error "expected a predicate"
  and close value = function
    | Rp :: rest -> (value, rest)
    | _ -> parse_error "expected ')'"
  in
  try
    let value, rest = parse (tokenize src) in
    if rest <> [] then Error "trailing tokens after predicate"
    else Ok value
  with Failure msg -> Error msg
