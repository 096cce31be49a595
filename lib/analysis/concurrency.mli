(** The [domain-unsafe-state] pass: flag unguarded uses of inventoried
    module-level mutable state ({!Mutstate}) from code reachable from a
    domain-entry point ([Domain.spawn], [Parallel.map],
    [Parallel.process]).

    Recognized guards: bodies that take [Mutex.lock]/[Mutex.protect] or
    use [Domain.DLS] directly; argument subtrees of calls to such
    functions, with the guard set closed under a fixpoint over
    lock-wrapper functions. Local aliases of shared state (bound by
    [let]/[match]) are tracked so mutable-field writes through them are
    flagged too. *)

val spawn_fn_ids : string list
(** Canonical ids of the repo's own fan-out primitives; each must name a
    function the whole-repo call graph defines (pinned by a test). *)

val run : Callgraph.t -> Rules.finding list
(** All findings across the graph, sorted and deduplicated; finding
    locations carry the owning file in [pos_fname]. *)
