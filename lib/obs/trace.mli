(** Nested spans with a ring-buffer recorder and JSONL / tree exporters.

    Usage: create and {!install} a {!recorder}, wrap protocol phases in
    {!with_span}, mark instants with {!event}, then export with
    {!to_jsonl} or {!tree}. With no recorder installed every call is a
    near-free no-op, so library code can be instrumented unconditionally.

    Domain-safe: spans may be recorded from any number of domains
    concurrently (ring updates are lock-guarded); each domain nests spans
    under its own innermost open span, since the open-span stack is
    domain-local state that follows the call stack. *)

type kind = Span | Event

type span = {
  id : int;
  parent : int option;  (** enclosing span id, [None] at the root *)
  name : string;
  kind : kind;
  start : float;  (** clock instant the span opened *)
  trace : string;
      (** trace this span belongs to: inherited from the enclosing span
          or the wire {!context}; a root span mints its own reference *)
  remote : string option;
      (** cross-process parent reference carried in via {!with_span_ctx} *)
  mutable duration : float;  (** seconds; [0.] for events / still-open spans *)
  mutable attrs : (string * string) list;
}

type recorder

val create :
  ?clock:Clock.t -> ?capacity:int -> ?origin:string -> unit -> recorder
(** Ring buffer holding the last [capacity] (default 4096) spans.
    [origin] (default ["main"]) labels this process in cross-process
    span references (["<origin>#<id>"]) — give every process of a
    deployment a distinct origin so {!merge} can stitch their dumps.
    @raise Invalid_argument if [capacity <= 0]. *)

val origin : recorder -> string

val install : recorder -> unit
(** Make [r] the global recorder that {!with_span}/{!event} feed. *)

val uninstall : unit -> unit
val installed : unit -> recorder option

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span nested under the innermost
    open span; the span closes (and its duration is patched) even if [f]
    raises. Passthrough when no recorder is installed. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Record an instant event under the innermost open span. *)

(** {2 Cross-process trace context}

    A {!context} names an open span in this process in a wire-portable
    form. Attach it to an outgoing frame; the receiver opens its
    handling span with {!with_span_ctx}, and the two processes' dumps
    stitch into one tree under {!merge}. *)

type context = {
  ctx_trace : string;  (** trace id, minted by the trace's root span *)
  ctx_parent : string;  (** origin-qualified reference to the open span *)
}

val context : unit -> context option
(** Context of the innermost open span on this domain ([None] with no
    recorder installed or no span open). *)

val with_span_ctx :
  ?ctx:context -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Like {!with_span}, but when [ctx] is given the span joins that trace
    and records [ctx.ctx_parent] as its remote parent (its local parent,
    if any, still nests it in this process's own tree). *)

val context_to_string : context -> string
(** Compact wire encoding (["<trace> <parent>"], no newlines). *)

val context_of_string : string -> context option
(** Inverse of {!context_to_string}; [None] on malformed input. *)

val spans : recorder -> span list
(** Recorded spans, oldest first; entries evicted by the ring are gone. *)

val recorded : recorder -> int
(** Spans currently held in the ring. *)

val total : recorder -> int
(** Spans ever started, including evicted ones. *)

val to_jsonl : recorder -> string
(** One JSON object per line:
    [{"id":…,"parent":…,"origin":…,"trace":…,"remote":…,
      "kind":"span"|"event","name":…,"start":…,"duration":…,
      "attrs":{…}}] ([remote] only when present). *)

val tree : recorder -> string
(** Indented human-readable parent/child rendering; spans whose parent
    was evicted render at the root. *)

(** {2 Merging per-process dumps} *)

type merged = {
  m_id : string;  (** origin-qualified reference, e.g. ["server0#3"] *)
  m_parent : string option;
      (** resolved parent reference — the local parent when one exists
          in the merged set, else the cross-process remote parent *)
  m_origin : string;
  m_trace : string;
  m_kind : kind;
  m_name : string;
  m_start : float;
  m_duration : float;
  m_attrs : (string * string) list;
}

val merge : string list -> merged list
(** Join per-process JSONL dumps ({!to_jsonl} output, one string per
    process) into one causally-ordered list: parents precede children,
    siblings order by start time then id (deterministic under a fixed
    clock). Lines that fail to parse — e.g. a dump torn by a kill — are
    skipped; dangling parent references degrade to roots. *)
