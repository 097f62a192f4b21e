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

let test_wide_stream_bounded () =
  let preds = List.map Xmlest.Predicate.tag [ "root"; "a"; "b"; "c" ] in
  let s = Xmlest.Summary.build_stream (events ()) preds in
  Alcotest.(check (float 0.0))
    "every a leaf counted"
    (float_of_int (leaves / Array.length tags))
    (Xmlest.Summary.node_count s (Xmlest.Predicate.tag "a"));
  let top_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1_048_576.0
  in
  Printf.printf "streamed build of %d leaves: top heap %.1f MB\n" leaves top_mb;
  Alcotest.(check bool)
    (Printf.sprintf "top heap %.1f MB under %.0f MB" top_mb cap_mb)
    true (top_mb < cap_mb)

let () =
  Alcotest.run "stream_memory"
    [
      ( "streamed build",
        [ Alcotest.test_case "wide document, bounded heap" `Quick test_wide_stream_bounded ] );
    ]
