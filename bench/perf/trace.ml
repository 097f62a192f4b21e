(* Span recorder for the traced run.

   A span is one call into a layer, timed on the monotonic clock; spans
   nest, and the spans of one request share its id.  Self time — a span's
   duration minus the part its child spans cover — is folded into a
   per-name total as each span closes, so aggregation needs no second pass.
   The span records themselves are kept only for the first [keep]
   requests, which bounds memory however long the run is; they are
   written as JSON when the run ends.

   A recorder is created per run by the caller (never at top level), and
   the untraced request functions never call into this module. *)

type span = {
  name : string;
  req : int;
  id : int;  (** index within the request, in opening order *)
  parent : int;  (** id of the enclosing span, [-1] for the request *)
  start_ns : int64;
  end_ns : int64;
}

type frame = {
  f_name : string;
  f_id : int;
  f_parent : int;
  f_start : int64;
  mutable f_child_ns : int64;  (** time covered by closed child spans *)
}

type agg = { mutable self_ns : int64; mutable calls : int }

type t = {
  mutable req : int;
  mutable next_id : int;
  mutable stack : frame list;
  mutable kept : span list;  (** newest first *)
  aggs : (string, agg) Hashtbl.t;
  covers : Stats.samples;
      (** per request: share of its time covered by child spans *)
  mutable requests : int;
}

let keep = 200

let create () =
  {
    req = 0;
    next_id = 0;
    stack = [];
    kept = [];
    aggs = Hashtbl.create 32;
    covers = Stats.samples ();
    requests = 0;
  }

let now = Monotonic_clock.now

let close t fr =
  let stop = now () in
  let dur = Int64.sub stop fr.f_start in
  let self = Int64.sub dur fr.f_child_ns in
  t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
  (match t.stack with
  | p :: _ -> p.f_child_ns <- Int64.add p.f_child_ns dur
  | [] ->
    if Int64.compare dur 0L > 0 then
      Stats.push t.covers (Int64.to_float fr.f_child_ns /. Int64.to_float dur));
  let a =
    match Hashtbl.find_opt t.aggs fr.f_name with
    | Some a -> a
    | None ->
      let a = { self_ns = 0L; calls = 0 } in
      Hashtbl.add t.aggs fr.f_name a;
      a
  in
  a.self_ns <- Int64.add a.self_ns self;
  a.calls <- a.calls + 1;
  if t.req < keep then
    t.kept <-
      {
        name = fr.f_name;
        req = t.req;
        id = fr.f_id;
        parent = fr.f_parent;
        start_ns = fr.f_start;
        end_ns = stop;
      }
      :: t.kept

(* [span t name f] runs [f] inside a span; the span closes even when [f]
   raises. *)
let span t name f =
  let parent = match t.stack with p :: _ -> p.f_id | [] -> -1 in
  let fr =
    { f_name = name; f_id = t.next_id; f_parent = parent; f_start = now ();
      f_child_ns = 0L }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- fr :: t.stack;
  match f () with
  | v ->
    close t fr;
    v
  | exception e ->
    close t fr;
    raise e

(* The root span of request [i]. *)
let request t i f =
  t.req <- i;
  t.next_id <- 0;
  t.requests <- t.requests + 1;
  span t "request" f

(* Self time per request of every span name, in ns, largest first. *)
let self_per_request t =
  let n = float_of_int (Int.max 1 t.requests) in
  Hashtbl.fold
    (fun name a acc -> (name, Int64.to_float a.self_ns /. n, a.calls) :: acc)
    t.aggs []
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

(* Median share of a request's time that its child spans cover. *)
let cover t = Stats.median (Stats.contents t.covers)

let to_json t =
  let span s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("req", Json.Num (float_of_int s.req));
        ("id", Json.Num (float_of_int s.id));
        ("parent", Json.Num (float_of_int s.parent));
        ("start_ns", Json.Num (Int64.to_float s.start_ns));
        ("end_ns", Json.Num (Int64.to_float s.end_ns));
      ]
  in
  let layer (name, ns, calls) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("self_us_per_request", Json.Num (ns /. 1e3));
        ("calls", Json.Num (float_of_int calls));
      ]
  in
  Json.Obj
    [
      ("requests", Json.Num (float_of_int t.requests));
      ("cover", Json.Num (cover t));
      ("layers", Json.Arr (List.map layer (self_per_request t)));
      ("spans", Json.Arr (List.rev_map span t.kept));
    ]
