(** Typedtree analyzer: reads the [.cmt] and [.cmti] files dune emits
    and runs three typed passes over the whole repository, the layer
    above the
    Parsetree linter (tools/lint) — same finding record, same
    [(* lint: allow <rule> *)] suppression syntax, same output formats.

    {b domain-escape} — for every task expression reaching
    [Domain.spawn] or [Pool.run] (lib/parallel), compute its captured
    environment (free variables of the typed task, one level through a
    locally bound function like the pool's own [worker]) and flag every
    capture whose type is transitively mutable: [ref], [array], [bytes],
    [Buffer.t], [Hashtbl.t], [Bigarray.*], I/O channels, and records or
    variants carrying a [mutable] field or such a component, resolved
    through the declaration table built from all analyzed [.cmt]s.
    Chunk-local state (bound inside the task) never fires; [Atomic.t]
    captures are exempt inside [lib/parallel/]; deliberate read-only
    shares are allowlisted at the spawn line.  This statically backs the
    ROADMAP "Parallel" invariant: per-sweep state is seedable at a chunk
    boundary and order-insensitively mergeable, or it does not cross a
    domain.

    {b resource-leak} — every acquisition ([open_in*], [open_out*],
    [Filename.temp_file], [Filename.open_temp_file], [Unix.openfile])
    must be released by a [Fun.protect ~finally] whose [finally] mentions
    the bound name, or escape to a documented owner (the binding scope's
    tail returns the value, possibly wrapped in a
    constructor/tuple/record).  A function
    whose whole body is the acquisition transfers ownership to its
    caller.  Everything else — including module-level acquisitions and
    results consumed inline — is a leak on the exception path.

    {b unused-export} — every [val] of an interface whose source lies
    under [lib/] (submodule signatures included) must be named by some
    unit other than its own module: reported at the [.mli] line as
    ["M.v: no reference"], or ["M.v: tests only"] when only units under
    [test/] name it.  Uses are the [Texp_ident] paths of every analyzed
    [.cmt]; a path is resolved through local [module X = M] and
    [let module X = M] aliases and through the top-level module aliases
    of every analyzed unit (the facade's renames such as
    [Hist_catalog = Xmlest_histogram.Catalog], dune's wrapper modules).
    A unit's part comes from the last [lib], [bin], [bench], [tools],
    [examples] or [test] directory on its source path (none: a program);
    [test/] and [examples/] units are read for references only, so the
    first two passes skip them.

    Known limits, by design of a project tool: captures hidden behind a
    function value defined in another module are not chased; a
    [~finally] that releases through an intermediate closure variable is
    not recognized — name the resource in the [finally] or allowlist; a
    value reached only through an [include], a functor argument or a
    first-class module counts as unreferenced. *)

type finding = Xmlest_lint.Lint.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

val rules : (string * string) list
(** Rule name, one-line description — the analyzer's rule table
    ([domain-escape], [resource-leak], [unused-export], plus [cmt-error]
    for unreadable inputs). *)

val analyze_cmt_files : string list -> finding list
(** Analyze the given [.cmt] and [.cmti] files as one program: the type-declaration
    table is shared, so mutability resolves across modules.  Findings
    are de-duplicated, suppression comments in the (relative to the
    current directory) source files are honored, and the result is
    sorted by file, line, rule.  Unreadable files yield [cmt-error]
    findings instead of exceptions. *)

val analyze_paths : string list -> finding list
(** Walk files and directory trees for [.cmt] and [.cmti] files (descending into
    dune's dot-directories such as [.objs]) and {!analyze_cmt_files}
    them. *)

val pp_finding : Format.formatter -> finding -> unit
(** ["file:line rule message"], shared with the linter. *)
