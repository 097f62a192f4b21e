(** An interactive shell over the library — a miniature TIMBER console.

    The interpreter is a pure-ish command -> output function over a small
    mutable state (current document, current summary), so the shell logic
    is testable without a terminal; [bin/xmlest shell] wires it to stdin.

    Commands ([help] lists them):
    {v
    gen <dblp|staff|xmark|shakespeare|treebank> [scale]
    load <file.xml>
    stats
    summarize [grid-size] [equidepth]
    estimate <query>        explain <query>
    check <query>
    exact <query>           plan <query>
    run <query> [limit]
    save-summary <file.xsum>   load-summary <file.xsum>
    catalog stats|reset
    help
    v} *)

type state

val create : unit -> state

val execute : state -> string -> string
(** Execute one command line and return its (possibly multi-line) output.
    Never raises: user errors come back as "error: ..." text.  Empty input
    returns the empty string. *)
