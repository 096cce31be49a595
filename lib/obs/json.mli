(** The one JSON codec of the repo: the string escaper every writer
    (spans, metric reports, bench records) shares, and the reader that
    loads them back (trace merging, [bench --check], scrape mining).
    Writers build their own text so their bytes stay pinned; only the
    escaping is shared. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

exception Error of string
(** Malformed input; the message names the byte offset. *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): the
    double quote, backslash, newline, tab and carriage return by their
    short escapes, other control bytes as a four-digit [u] escape,
    everything else verbatim. *)

val parse : string -> t
(** One whole document, surrounding whitespace allowed. Every escape is
    understood; a [u] escape outside ASCII decodes to ['?'] (the writers
    only [u]-escape control bytes).
    @raise Error on malformed input or trailing garbage. *)

val member : string -> t -> t option
(** The first member named [k] of an object; [None] for a missing key or
    a non-object. *)
