(* Bounded memory of the streamed build, in a process of its own so the
   heap's high-water mark starts near zero.  A root with 500,000 leaf
   children is the widest document there is.  The replay reads the spill
   backwards, so the root arrives before its leaves and each leaf is
   resolved against the root's open match as it comes: pending state is
   one stack of open matches per predicate, O(element depth).  A replay
   that held the leaves until their covering root turned up — as a
   forward, post-order replay must — would grow with the document. *)

open Xmlest_core

let leaves = 500_000
let tags = [| "a"; "b"; "c"; "d"; "e" |]

(* Open root, then Open/Close per leaf, then Close root — from a closure,
   no file and no event list. *)
let events () =
  let k = ref 0 in
  fun () ->
    let step = !k in
    incr k;
    if step = 0 then Some (Xmlest.Sax.Open { tag = "root"; attrs = [] })
    else if step <= 2 * leaves then
      if step land 1 = 1 then
        Some
          (Xmlest.Sax.Open
             { tag = tags.((step / 2) mod Array.length tags); attrs = [] })
      else Some Xmlest.Sax.Close
    else if step = (2 * leaves) + 1 then Some Xmlest.Sax.Close
    else None

(* Parse-free pass A and the replay's builders need a few MB; state held
   per leaf takes tens. *)
let cap_mb = 16.0

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1_048_576.0

let test_wide_stream_bounded () =
  let preds = List.map Xmlest.Predicate.tag [ "root"; "a"; "b"; "c" ] in
  let s = Xmlest.Summary.build_stream (events ()) preds in
  Alcotest.(check (float 0.0))
    "every a leaf counted"
    (float_of_int (leaves / Array.length tags))
    (Xmlest.Summary.node_count s (Xmlest.Predicate.tag "a"));
  let top_mb = top_heap_mb () in
  Printf.printf "streamed build of %d leaves: top heap %.1f MB\n" leaves top_mb;
  Alcotest.(check bool)
    (Printf.sprintf "top heap %.1f MB under %.0f MB" top_mb cap_mb)
    true (top_mb < cap_mb)

(* The tokenizer interns names up to a fixed count.  A file of 100,000
   distinct 200-byte tag names would hold about 21 MB of names in an
   unbounded table; the bounded one keeps the top heap under the same
   cap, through [Sax.of_channel] and through the streamed build. *)
let distinct_names = 100_000

let test_distinct_names_bounded () =
  let name i = Printf.sprintf "t%06d%s" i (String.make 193 'x') in
  let path = Filename.temp_file "xmlest-names" ".xml" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "<root>\n";
      for i = 0 to distinct_names - 1 do
        Printf.fprintf oc "<%s/>\n" (name i)
      done;
      output_string oc "</root>\n");
  let opens =
    In_channel.with_open_bin path (fun ic ->
        Xmlest.Sax.fold
          (fun n ev -> match ev with Xmlest.Sax.Open _ -> n + 1 | _ -> n)
          0 (Xmlest.Sax.of_channel ic))
  in
  Alcotest.(check int) "every element read" (distinct_names + 1) opens;
  let preds = List.map Xmlest.Predicate.tag [ "root"; name 0; name (distinct_names - 1) ] in
  let s = Xmlest.Summary.build_stream_file path preds in
  Alcotest.(check (float 0.0))
    "the last name counted" 1.0
    (Xmlest.Summary.node_count s (Xmlest.Predicate.tag (name (distinct_names - 1))));
  let top_mb = top_heap_mb () in
  Printf.printf "%d distinct names: top heap %.1f MB\n" distinct_names top_mb;
  Alcotest.(check bool)
    (Printf.sprintf "top heap %.1f MB under %.0f MB" top_mb cap_mb)
    true (top_mb < cap_mb)

let () =
  Alcotest.run "stream_memory"
    [
      ( "streamed build",
        [
          Alcotest.test_case "wide document, bounded heap" `Quick test_wide_stream_bounded;
          Alcotest.test_case "distinct tag names, bounded heap" `Quick
            test_distinct_names_bounded;
        ] );
    ]
